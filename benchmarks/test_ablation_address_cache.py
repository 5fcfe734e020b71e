"""Ablation (Section 4.2): caching of address-string construction.

The C++ PPX front end converts stack traces to symbolic names with dladdr;
caching those conversions gave a 5x improvement in address-string production.
The Python analogue caches per-code-object frame symbolisation inside
:class:`repro.ppx.addresses.AddressBuilder`.  This bench builds addresses
with and without the cache from a call stack of realistic depth: the cached
path must give identical addresses from its cache (every run), and be faster
(a wall-clock gate, run only under ``-m timing``).
"""

import time

import pytest

from repro.ppx import AddressBuilder

from benchmarks.conftest import print_table

CALLS = 3000
STACK_DEPTH = 10


def _call_chain(builder, depth):
    if depth == 0:
        return builder.build(skip_frames=1)
    return _call_chain(builder, depth - 1)


def _time_builder(builder):
    start = time.perf_counter()
    for _ in range(CALLS):
        _call_chain(builder, STACK_DEPTH)
    return time.perf_counter() - start


def test_ablation_address_cache_equivalence():
    cached = AddressBuilder(use_cache=True, max_depth=STACK_DEPTH + 4)
    uncached = AddressBuilder(use_cache=False, max_depth=STACK_DEPTH + 4)

    # Same address strings either way, and repeats served from the cache.
    for _ in range(CALLS // 100):
        assert _call_chain(cached, STACK_DEPTH) == _call_chain(uncached, STACK_DEPTH)
    assert cached.cache_hits > cached.cache_misses


@pytest.mark.timing
def test_ablation_address_cache_speedup(benchmark):
    cached = AddressBuilder(use_cache=True, max_depth=STACK_DEPTH + 4)
    uncached = AddressBuilder(use_cache=False, max_depth=STACK_DEPTH + 4)

    uncached_time = _time_builder(uncached)
    benchmark(lambda: _call_chain(cached, STACK_DEPTH))
    cached_time = _time_builder(cached)
    speedup = uncached_time / cached_time

    print_table(
        "Ablation: address-string construction with and without the symbolisation cache",
        ["configuration", f"time for {CALLS} addresses (ms)", "speedup"],
        [
            ["uncached (dladdr every call)", f"{uncached_time * 1e3:.1f}", "1.0x"],
            ["cached", f"{cached_time * 1e3:.1f}", f"{speedup:.2f}x"],
        ],
    )
    print(f"cache hits {cached.cache_hits}, misses {cached.cache_misses}")

    assert speedup > 1.0

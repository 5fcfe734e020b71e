"""Benchmark: process-based cohort execution vs the thread pool under the GIL.

After PR 3, the ROADMAP records that the per-trace cost floor of the serving
stack is GIL contention between cohort worker threads, not NN compute.  This
bench measures exactly that boundary: a CPU-bound pure-Python simulator (the
worst case for threads, the normal case for scientific simulators) served by
``PosteriorService`` with ``backend="thread"`` vs ``backend="process"`` at
``num_workers = 2``, identical seeds and shard layout.

Required on a multi-core runner (the bench skips when only one core is
visible — two worker processes pinned to one core measure scheduling noise,
not the GIL):

* both backends produce **identical** seeded posteriors (the load-bearing
  correctness property: randomness is derived in the parent, so the execution
  venue cannot change what is drawn); and
* the process backend completes the same request load at least
  ``PROCESS_SPEEDUP_MIN`` (default 1.15x) faster in wall-clock time.

The vectorised-choice-kernel micro-bench rides along: the inverse-CDF kernel
must not be slower than the per-draw ``generator.choice(p=...)`` reference it
replaced, ``tests/reference_kernels.sample_rows_percall`` (bit-identity is
asserted in ``tests/test_distributions_batched.py``).
"""

import os
import time

import numpy as np
import pytest

from repro.common.rng import RandomState
from repro.distributions.batched import BatchedMixtureOfTruncatedNormals
from repro.ppl import FunctionModel, observe, sample
from repro.serving import PosteriorService
from repro.distributions import Normal, Uniform

from benchmarks.conftest import print_table
from tests import reference_kernels as ref

NUM_REQUESTS = 6
TRACES_PER_REQUEST = 8
NUM_WORKERS = 2
# Heavy enough that per-shard compute (~hundreds of ms) dominates the
# process backend's fixed IPC/pickle overhead (~tens of ms per run).
SPIN_ITERATIONS = int(os.environ.get("PROCESS_BENCH_SPIN", "60000"))
MIN_SPEEDUP = float(os.environ.get("PROCESS_SPEEDUP_MIN", "1.15"))


def cpu_bound_program():
    """A simulator whose cost is pure-Python compute (holds the GIL)."""
    a = sample(Uniform(-1.0, 1.0), name="a", address="cpu_a")
    total = 0.0
    for i in range(SPIN_ITERATIONS):
        total += ((a + i) % 7.0) * 1e-6
    b = sample(Normal(total, 1.0), name="b", address="cpu_b")
    observe(Normal(a + b, 0.5), name="obs")
    return a


OBSERVATION = {"obs": np.array(0.4)}


def _run_backend(backend: str):
    model = FunctionModel(cpu_bound_program, name="cpu-bound")
    service = PosteriorService(
        model,
        None,  # likelihood weighting: all cost is the simulator itself
        num_workers=NUM_WORKERS,
        backend=backend,
        max_batch=TRACES_PER_REQUEST,  # one request per cohort: pure worker parallelism
        max_latency=0.001,
        shard_min=1,
    ).start()
    try:
        started = time.perf_counter()
        futures = [
            service.submit(
                OBSERVATION, num_traces=TRACES_PER_REQUEST, seed=seed, use_cache=False
            )
            for seed in range(NUM_REQUESTS)
        ]
        results = [future.result(timeout=300) for future in futures]
        elapsed = time.perf_counter() - started
    finally:
        service.stop()
    summaries = [
        (result.posterior.extract("a").mean, result.posterior.log_evidence)
        for result in results
    ]
    return elapsed, summaries


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="process-vs-thread speedup needs at least two cores",
)
def test_process_backend_beats_threads_on_cpu_bound_model():
    thread_elapsed, thread_summaries = _run_backend("thread")
    process_elapsed, process_summaries = _run_backend("process")

    # Identical seeded posteriors whichever backend executed the shards.
    for (thread_mean, thread_evidence), (process_mean, process_evidence) in zip(
        thread_summaries, process_summaries
    ):
        assert process_mean == thread_mean
        assert process_evidence == thread_evidence

    speedup = thread_elapsed / process_elapsed
    print_table(
        f"process vs thread backend ({NUM_REQUESTS} requests x "
        f"{TRACES_PER_REQUEST} traces, {NUM_WORKERS} workers)",
        ["backend", "wall s", "speedup"],
        [
            ["thread", f"{thread_elapsed:.3f}", "1.00"],
            ["process", f"{process_elapsed:.3f}", f"{speedup:.2f}"],
        ],
    )
    assert speedup >= MIN_SPEEDUP, (
        f"process backend speedup {speedup:.2f}x below required {MIN_SPEEDUP}x "
        f"(thread {thread_elapsed:.3f}s vs process {process_elapsed:.3f}s)"
    )


def test_inverse_cdf_choice_kernel_not_slower_than_percall():
    rng = np.random.default_rng(7)
    batch, components, rounds = 64, 10, 200
    locs = rng.normal(size=(batch, components))
    scales = np.abs(rng.normal(size=(batch, components))) + 0.1
    weights = np.abs(rng.normal(size=(batch, components))) + 0.05
    lows = locs.min(axis=1) - 1.0
    highs = locs.max(axis=1) + 1.0

    batched = BatchedMixtureOfTruncatedNormals(locs, scales, weights, lows, highs)

    def run(kernel: str) -> float:
        rngs = [RandomState(row) for row in range(batch)]
        generators = [rng.generator for rng in rngs]
        started = time.perf_counter()
        for _ in range(rounds):
            if kernel == "percall":
                ref.sample_rows_percall(batched, generators)
            else:
                batched.sample_rows(rngs)
        return time.perf_counter() - started

    run("percall")  # warm-up: first-touch allocations out of the timing
    percall = run("percall")
    inverse_cdf = run("inverse_cdf")
    ratio = percall / inverse_cdf
    print_table(
        f"component-choice kernel (B={batch}, K={components}, {rounds} rounds)",
        ["kernel", "wall s", "relative"],
        [
            ["percall generator.choice", f"{percall:.4f}", "1.00"],
            ["inverse-CDF", f"{inverse_cdf:.4f}", f"{ratio:.2f}"],
        ],
    )
    # Wall-clock assertion kept loose (shared runners): the vectorised kernel
    # must at minimum not regress the path it replaces.
    assert inverse_cdf <= percall * 1.10

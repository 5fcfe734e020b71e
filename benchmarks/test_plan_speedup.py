"""Benchmark: compiled execution plans vs the dynamic lockstep path.

A compiled :class:`repro.ppl.inference.plans.EnginePlan` serves a hot trace
type from a fixed address schedule, precompiled prior geometry and
pre-gathered address-embedding rows.  Dynamic rounds take the shortcuts that
matter without a plan — driver-side draws in one vectorised pass, geometry
memoised per prior signature, ``build_into`` construction into the session's
scratch, one batched previous-sample encode — so a plan hit no longer buys
speed, and the decision recorded in ROADMAP is to delete plans.  Until that
lands this file guards what plans must still promise.

The workload is the hot-trace-type serving shape the cache is built for: one
fixed-control-flow model with ``NUM_STEPS`` latent draws, every request
asking for one full ``B = MAX_BATCH = 32`` cohort of the same trace type,
seeds distinct so every request is genuine inference.  Required:

* every served posterior is **bit-identical** between ``use_plans=True`` and
  ``use_plans=False`` (same values, same log-weights — the plan equivalence
  gate, not a tolerance);
* the planned service records plan-cache hits on every post-warm-up request
  (the workload really ran on the fast path); and
* planned serving is **not slower**: dynamic over planned lower-quartile
  latency at least ``MIN_RATIO`` = 0.9.  Ten runs of this test on a 2-vCPU
  host read 1.03, 1.02, 1.02, 1.03, 1.04, 1.02, 1.04, 1.03, 1.03, 1.02x
  (they read 1.19–1.32x, median 1.23x, while dynamic rounds still built a
  fresh mixture, derived geometry per group and encoded previous values row
  by row).  The guard trips when the planned path costs a tenth more than
  the dynamic one.

**Measurement.** The two services are timed request by request over
``ROUNDS`` alternating rounds in an interpreter of their own that pins itself
to one core before numpy loads, and the gate compares the lower quartiles of
the two latency samples.  Unpinned, the cohort's threads float over the cores
and the same request costs 1–3x as much from one call to the next, which
buries a ratio near 1: best-of-three totals read anywhere from 0.9x to 1.85x
on this host.  Pinning the pytest process instead would leak: a thread first
started inside the pinned region keeps the one-core mask for good (OpenBLAS
re-creates its workers lazily after any earlier test forks, and they then
spin on the core being measured — 144 ms a request instead of 22).
"""

import json
import os
import subprocess
import sys
import time

import numpy as np

from repro.common.rng import RandomState
from repro.distributions import Normal, Uniform
from repro.ppl import FunctionModel, observe, sample
from repro.ppl.inference.inference_compilation import InferenceCompilation
from repro.ppl.nn.embeddings import ObservationEmbeddingFC
from repro.serving import PosteriorService

from benchmarks.conftest import print_table

NUM_STEPS = 8
MAX_BATCH = 32
NUM_REQUESTS = 12
WARMUP_REQUESTS = 2
ROUNDS = 5
MIN_RATIO = 0.9

OBSERVATION = {"obs": np.array([0.3, 0.15, -0.3, 1.0])}


def hot_program():
    """Fixed control flow: one trace type, NUM_STEPS static-prior draws."""
    total = 0.0
    for i in range(NUM_STEPS):
        total += sample(Uniform(-1.0, 1.0), name=f"x{i}", address=f"addr_{i}")
    observe(Normal(np.array([total, total * 0.5, -total, 1.0]), 0.4), name="obs")
    return total


def _trained_engine(model):
    engine = InferenceCompilation(
        observation_embedding=ObservationEmbeddingFC(input_dim=4, embedding_dim=16),
        observe_key="obs",
        rng=RandomState(0),
    )
    engine.train(model, num_traces=200, minibatch_size=20, learning_rate=3e-3)
    return engine


# Pin first, import after: OpenBLAS sizes its pool from the mask it starts under.
_PINNED_CHILD = """
import json, os
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from benchmarks.test_plan_speedup import measure
print(json.dumps(measure()))
"""


def _lower_quartile(latencies):
    return sorted(latencies)[len(latencies) // 4]


def _run_service(model, network, use_plans):
    """Serve NUM_REQUESTS hot-type cohorts; return (latencies, posteriors, stats)."""
    service = PosteriorService(
        model, network, observe_key="obs", backend="thread",
        num_workers=1, max_batch=MAX_BATCH, shard_min=MAX_BATCH,
        use_plans=use_plans,
    )
    with service:
        for warmup in range(WARMUP_REQUESTS):  # compiles the plan on the planned side
            service.posterior(OBSERVATION, MAX_BATCH, seed=10 + warmup,
                              use_cache=False, timeout=300)
        latencies, posteriors = [], []
        for request in range(NUM_REQUESTS):
            start = time.perf_counter()
            result = service.posterior(OBSERVATION, MAX_BATCH, seed=100 + request,
                                       use_cache=False, timeout=300)
            latencies.append(time.perf_counter() - start)
            posteriors.append(result.posterior)
        stats = service.stats()
    return latencies, posteriors, stats


def measure():
    """Time both services and check bit-identity; run by ``_PINNED_CHILD``."""
    model = FunctionModel(hot_program, name="hot-trace-type")
    engine = _trained_engine(model)

    planned_latencies, dynamic_latencies = [], []
    for _ in range(ROUNDS):
        latencies, planned_posteriors, planned_stats = _run_service(model, engine.network, True)
        planned_latencies += latencies
        latencies, dynamic_posteriors, _ = _run_service(model, engine.network, False)
        dynamic_latencies += latencies
        # The equivalence gate: bit-identical, not approximately equal.
        for planned, dynamic in zip(planned_posteriors, dynamic_posteriors):
            for planned_trace, dynamic_trace in zip(planned.values, dynamic.values):
                assert [s.value for s in planned_trace.samples if s.controlled] == [
                    s.value for s in dynamic_trace.samples if s.controlled
                ]
            assert np.array_equal(
                np.asarray(planned.log_weights), np.asarray(dynamic.log_weights)
            )
    return {
        "planned": planned_latencies,
        "dynamic": dynamic_latencies,
        "hits": planned_stats["engine"]["plan_hits"],
        "misses": planned_stats["engine"]["plan_misses"],
        "divergences": planned_stats["engine"]["num_plan_divergences"],
    }


def test_planned_serving_is_bit_identical_and_not_slower():
    child = subprocess.run(
        [sys.executable, "-c", _PINNED_CHILD],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, sys.path))},
        capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stdout + child.stderr
    measured = json.loads(child.stdout.splitlines()[-1])

    hits = measured["hits"]
    hit_rate = hits / max(1, hits + measured["misses"])
    planned_time = _lower_quartile(measured["planned"])
    dynamic_time = _lower_quartile(measured["dynamic"])
    ratio = dynamic_time / planned_time
    print_table(
        f"Compiled-plan vs dynamic serving (B={MAX_BATCH}, {NUM_STEPS}-step hot trace type)",
        ["path", "request (ms)", "traces/s", "plan hit rate"],
        [
            ["dynamic", f"{1e3 * dynamic_time:.1f}", f"{MAX_BATCH / dynamic_time:.0f}", "-"],
            ["planned", f"{1e3 * planned_time:.1f}", f"{MAX_BATCH / planned_time:.0f}",
             f"{hit_rate:.2f}"],
            ["dynamic / planned", f"{ratio:.2f}x", "", f"(require >= {MIN_RATIO}x)"],
        ],
    )
    assert hits >= NUM_REQUESTS, "hot workload must be served from the plan cache"
    assert measured["divergences"] == 0
    assert ratio >= MIN_RATIO, (
        f"planned serving is {1 / ratio:.2f}x the dynamic latency (guard: {1 / MIN_RATIO:.2f}x)"
    )

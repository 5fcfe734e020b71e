"""Benchmark: compiled execution plans vs the dynamic lockstep path.

The plan cache's claim (ROADMAP: compiled execution plans + buffer reuse):
once a trace type is hot, serving its cohorts from a compiled
:class:`repro.ppl.inference.plans.EnginePlan` — fixed address schedule,
precompiled prior geometry, pre-gathered address-embedding rows, one batched
previous-sample encode, ``build_into`` distribution construction into leased
scratch — removes the per-round bookkeeping the dynamic session re-derives
every cohort, without changing a single sampled bit.

The workload is the hot-trace-type serving shape the cache is built for: one
fixed-control-flow model with ``NUM_STEPS`` latent draws, every request
asking for one full ``B = MAX_BATCH = 32`` cohort of the same trace type,
seeds distinct so every request is genuine inference.  Required:

* every served posterior is **bit-identical** between ``use_plans=True`` and
  ``use_plans=False`` (same values, same log-weights — the plan equivalence
  gate, not a tolerance);
* the planned service records plan-cache hits on every post-warm-up request
  (the workload really ran on the fast path); and
* a planned request is at least ``PLAN_SPEEDUP_MIN`` (default 1.1) times as
  fast as a dynamic one.  Dynamic rounds are drawn and scored driver-side in
  one vectorised pass, exactly as planned rounds are, so what a plan hit
  still saves is the per-group constants listed above: 1.19–1.32x over ten
  runs of this test on a 2-vCPU host (median 1.23x; 1.19–1.24x with both
  cores kept busy by other processes), where the worker-side scalar draws of
  the old dynamic path had made it ~3x under the same measurement.  The
  floor sits below the slowest of those runs and fails once the planned path
  loses about a tenth of its speed.

**Measurement.** The two services are timed request by request over
``ROUNDS`` alternating rounds in an interpreter of their own that pins itself
to one core before numpy loads, and the gate compares the lower quartiles of
the two latency samples.  Unpinned, the cohort's threads float over the cores
and the same request costs 1–3x as much from one call to the next (ROADMAP
open item), which buries a 1.2x effect: best-of-three totals read anywhere
from 0.9x to 1.85x on this host.  Pinning the pytest process instead would
leak: a thread first started inside the pinned region keeps the one-core mask
for good (OpenBLAS re-creates its workers lazily after any earlier test forks,
and they then spin on the core being measured — 144 ms a request instead of
22, ratio 1.0x).
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
MIN_SPEEDUP = float(os.environ.get("PLAN_SPEEDUP_MIN", "1.1"))

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


def test_planned_serving_beats_dynamic_with_bit_identical_posteriors():
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
    speedup = dynamic_time / planned_time
    print_table(
        f"Compiled-plan serving speedup (B={MAX_BATCH}, {NUM_STEPS}-step hot trace type)",
        ["path", "request (ms)", "traces/s", "plan hit rate"],
        [
            ["dynamic", f"{1e3 * dynamic_time:.1f}", f"{MAX_BATCH / dynamic_time:.0f}", "-"],
            ["planned", f"{1e3 * planned_time:.1f}", f"{MAX_BATCH / planned_time:.0f}",
             f"{hit_rate:.2f}"],
            ["speedup", f"{speedup:.2f}x", "", f"(require >= {MIN_SPEEDUP}x)"],
        ],
    )
    assert hits >= NUM_REQUESTS, "hot workload must be served from the plan cache"
    assert measured["divergences"] == 0
    assert speedup >= MIN_SPEEDUP, (
        f"planned serving speedup {speedup:.2f}x below the {MIN_SPEEDUP}x floor"
    )

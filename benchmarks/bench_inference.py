"""Machine-readable inference benchmark: one JSON report per run.

``python benchmarks/bench_inference.py [--output BENCH_inference.json]``
runs the hot-trace-type workload of :mod:`benchmarks.test_plan_speedup`
through both the raw engine and the serving layer, with and without the
compiled-plan cache, and writes one flat JSON document::

    {
      "workload": {...},                  # model/batch shape, trace counts
      "engine":  {"dynamic": {...}, "planned": {...}},   # traces/s, emission rate
      "serving": {"dynamic": {...}, "planned": {...}},   # traces/s, p50/p99 latency
      "plan_cache": {...},                # hit rate + plan counters (engine + PlanCache)
      "speedup": {"engine": ..., "serving": ...}
    }

Numbers in the JSON are measurements, not gates — the pass/fail thresholds
live in the pytest benchmarks (``PLAN_SPEEDUP_MIN`` and friends) so a noisy
runner fails loudly there while this artifact stays comparable across runs.
CI uploads the file from every push, giving a per-commit throughput series
without digging numbers out of job logs.

Emission rate counts proposal distributions handed to workers per second
(``num_proposal_steps``), the paper's per-latent cost unit; traces/s is the
end-to-end unit serving capacity is planned in.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.common.rng import RandomState
from repro.distributions import Normal, Uniform
from repro.ppl import FunctionModel, observe, sample
from repro.ppl.inference.batched import batched_importance_sampling
from repro.ppl.inference.inference_compilation import InferenceCompilation
from repro.ppl.inference.plans import PlanCache
from repro.ppl.nn.embeddings import ObservationEmbeddingFC
from repro.serving import PosteriorService

NUM_STEPS = 8
MAX_BATCH = 32
ENGINE_TRACES = 256
NUM_REQUESTS = 12
ROUNDS = 3

OBSERVATION = {"obs": np.array([0.3, 0.15, -0.3, 1.0])}


def hot_program():
    total = 0.0
    for i in range(NUM_STEPS):
        total += sample(Uniform(-1.0, 1.0), name=f"x{i}", address=f"addr_{i}")
    observe(Normal(np.array([total, total * 0.5, -total, 1.0]), 0.4), name="obs")
    return total


def bench_engine(model, network, plan_cache):
    """Best-of-ROUNDS raw-engine pass: traces/s and proposal emission rate."""
    best = float("inf")
    stats = None
    for round_index in range(ROUNDS):
        start = time.perf_counter()
        posterior = batched_importance_sampling(
            model, OBSERVATION, num_traces=ENGINE_TRACES, batch_size=MAX_BATCH,
            network=network, rng=RandomState(50 + round_index), plan_cache=plan_cache,
        )
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best, stats = elapsed, posterior.engine_stats
    return {
        "time_s": best,
        "traces_per_s": ENGINE_TRACES / best,
        "emission_rate_per_s": stats["num_proposal_steps"] / best,
        "planned_cohorts": stats.get("num_planned_cohorts", 0),
        "plan_hits": stats.get("plan_hits", 0),
    }


def bench_serving(model, network, use_plans):
    """Best-of-ROUNDS serving pass: traces/s plus p50/p99 request latency."""
    best = None
    for _ in range(ROUNDS):
        service = PosteriorService(
            model, network, observe_key="obs", backend="thread",
            num_workers=1, max_batch=MAX_BATCH, shard_min=MAX_BATCH,
            use_plans=use_plans,
        )
        with service:
            for warmup in range(2):
                service.posterior(OBSERVATION, MAX_BATCH, seed=10 + warmup,
                                  use_cache=False, timeout=300)
            start = time.perf_counter()
            latencies = [
                service.posterior(OBSERVATION, MAX_BATCH, seed=100 + request,
                                  use_cache=False, timeout=300).latency
                for request in range(NUM_REQUESTS)
            ]
            elapsed = time.perf_counter() - start
            stats = service.stats()
        measured = {
            "time_s": elapsed,
            "traces_per_s": NUM_REQUESTS * MAX_BATCH / elapsed,
            "latency_p50_s": float(np.percentile(latencies, 50)),
            "latency_p99_s": float(np.percentile(latencies, 99)),
        }
        if best is None or measured["time_s"] < best[0]["time_s"]:
            best = (measured, stats)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_inference.json",
                        help="where to write the JSON report")
    args = parser.parse_args(argv)

    model = FunctionModel(hot_program, name="hot-trace-type")
    engine = InferenceCompilation(
        observation_embedding=ObservationEmbeddingFC(input_dim=4, embedding_dim=16),
        observe_key="obs",
        rng=RandomState(0),
    )
    engine.train(model, num_traces=200, minibatch_size=20, learning_rate=3e-3)
    network = engine.network

    cache = PlanCache()
    # Warm the cache so the planned engine pass measures the hot path, not
    # the one-time compile.
    batched_importance_sampling(
        model, OBSERVATION, num_traces=2 * MAX_BATCH, batch_size=MAX_BATCH,
        network=network, rng=RandomState(7), plan_cache=cache,
    )
    engine_dynamic = bench_engine(model, network, None)
    engine_planned = bench_engine(model, network, cache)

    serving_dynamic, _ = bench_serving(model, network, use_plans=False)
    serving_planned, planned_stats = bench_serving(model, network, use_plans=True)

    engine_counters = planned_stats["engine"]
    # Lease outcomes, divergences and demotions are counted by the engine;
    # the PlanCache reports only what it alone knows (compiles, contents).
    plans = dict(
        planned_stats["plans"],
        hits=engine_counters["plan_hits"],
        misses=engine_counters["plan_misses"],
        demotions=engine_counters["plan_demotions"],
        divergences=engine_counters["num_plan_divergences"],
    )
    lookups = plans["hits"] + plans["misses"]
    report = {
        "workload": {
            "model": "hot-trace-type",
            "num_steps": NUM_STEPS,
            "batch_size": MAX_BATCH,
            "engine_traces": ENGINE_TRACES,
            "serving_requests": NUM_REQUESTS,
            "traces_per_request": MAX_BATCH,
            "rounds": ROUNDS,
        },
        "engine": {"dynamic": engine_dynamic, "planned": engine_planned},
        "serving": {"dynamic": serving_dynamic, "planned": serving_planned},
        "plan_cache": dict(plans, hit_rate=plans["hits"] / lookups if lookups else 0.0),
        "speedup": {
            "engine": engine_dynamic["time_s"] / engine_planned["time_s"],
            "serving": serving_dynamic["time_s"] / serving_planned["time_s"],
        },
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The read surface of ``PosteriorService.stats()``.

Every number in the snapshot is read from the component that counts it, so
the key set is the contract: it is the same on the thread and process
backends (bar the thread pool's own ``plans`` section), with and without
``resilience=``, and it holds every key the repo benchmark
(``benchmarks/e2e/layers.py``, ``workloads.py``) reads.  The serving phase
totals are running sums, so their memory does not grow with traffic.  Every
request is counted once as completed or failed, also one that coalesced onto
an identical in-flight request.
"""

import tracemalloc

import pytest

from repro.common.rng import RandomState
from repro.ppl import FunctionModel
from repro.ppl.inference.batched import ENGINE_STAT_KEYS
from repro.ppl.inference.inference_compilation import InferenceCompilation
from repro.ppl.nn.embeddings import ObservationEmbeddingFC
from repro.serving import PosteriorService, ServiceResilience
from tests.test_batched_inference import OBSERVATION, lockstep_program
from tests.test_cohort_executor import (  # noqa: F401 - gate is a fixture
    ENTERED,
    GATED_OBSERVATION,
    gate,
    gated_program,
    wait_for,
)

#: the top-level keys of every snapshot (``resilience`` joins with a
#: resilience layer, ``faults`` with an active fault plan, ``plans`` with the
#: thread pool's shared plan cache)
TOP_LEVEL_KEYS = {
    "uptime_s", "submitted", "completed", "failed", "shed_deadline",
    "rejected_overload", "qps", "traces_executed", "traces_per_s",
    "cohorts_executed",
    "latency_p50_s", "latency_p99_s", "latency_mean_s",
    "mean_cohort_occupancy", "mean_cohort_size", "mixed_cohort_fraction",
    "scheduler_phase_totals_s",
    "cache_hits", "cache_misses", "cache_hit_rate",
    "retries", "breaker_state", "breaker_opens", "faults_injected",
    "backend", "cache", "scheduler", "workers", "engine",
}

#: the ``workers`` section: what either pool counts, then the process pool's own
WORKERS_KEYS = {"backend", "num_workers", "free_executors", "shards_executed", "failed_shards"}
PROCESS_WORKERS_KEYS = WORKERS_KEYS | {"worker_crashes", "inflight_shards"}
#: the ``resilience`` section
RESILIENCE_KEYS = {
    "breaker", "retry_max_attempts", "retries_dispatched", "retries_pending", "retries_abandoned",
}

#: top-level keys ``benchmarks/e2e`` reads across its timed window
BENCHMARK_KEYS = (
    "cache_hits", "cache_misses", "submitted", "shed_deadline", "rejected_overload",
    "traces_executed", "mean_cohort_occupancy", "mixed_cohort_fraction",
)
#: ``engine.*`` counters ``benchmarks/e2e/layers.py`` reads
BENCHMARK_ENGINE_KEYS = (
    "num_rounds", "num_proposal_steps", "num_planned_rounds", "num_divergent_rounds",
    "num_fallbacks", "num_observation_embeddings", "num_cohorts",
)


@pytest.fixture(scope="module")
def served_engine():
    model = FunctionModel(lockstep_program, name="lockstep")
    engine = InferenceCompilation(
        observation_embedding=ObservationEmbeddingFC(input_dim=4, embedding_dim=16),
        observe_key="obs",
        rng=RandomState(0),
    )
    engine.train(model, num_traces=100, minibatch_size=20, learning_rate=3e-3)
    return model, engine


def stats_after_one_shard(model, engine, backend, with_resilience):
    resilience = ServiceResilience() if with_resilience else None
    with PosteriorService(
        model, engine.network, observe_key="obs", backend=backend,
        num_workers=1, max_batch=8, resilience=resilience,
    ) as service:
        service.posterior(OBSERVATION, num_traces=8, seed=1, use_cache=False, timeout=120)
        return service.stats()


@pytest.mark.parametrize("with_resilience", [False, True], ids=["plain", "resilience"])
def test_stats_key_sets_match_across_backends(served_engine, with_resilience):
    model, engine = served_engine
    thread = stats_after_one_shard(model, engine, "thread", with_resilience)
    process = stats_after_one_shard(model, engine, "process", with_resilience)

    expected = TOP_LEVEL_KEYS | ({"resilience"} if with_resilience else set())
    assert set(process) == expected
    assert set(thread) == expected | {"plans"}
    for section in ("engine", "scheduler_phase_totals_s", "cache", "scheduler"):
        assert set(thread[section]) == set(process[section]), section
    assert set(thread["workers"]) == WORKERS_KEYS | {"cancelled_shards"}
    assert set(process["workers"]) == PROCESS_WORKERS_KEYS
    if with_resilience:
        assert set(thread["resilience"]) == set(process["resilience"]) == RESILIENCE_KEYS

    for stats in (thread, process):
        assert set(stats["engine"]) == set(ENGINE_STAT_KEYS)
        assert set(stats["scheduler_phase_totals_s"]) == {"cohort_execution"}
        assert stats["scheduler_phase_totals_s"]["cohort_execution"] > 0
        for key in BENCHMARK_KEYS:
            assert key in stats, key
        for key in BENCHMARK_ENGINE_KEYS:
            assert key in stats["engine"], key
        # The cache outcome of the one (uncached) request and the shard it ran.
        assert (stats["cache_hits"], stats["cache_misses"]) == (0, 0)
        assert stats["engine"]["num_cohorts"] == 1


def test_phase_totals_do_not_grow_with_traffic():
    """One running total per phase: 100 000 executed shards cost no memory."""
    service = PosteriorService(FunctionModel(lockstep_program, name="lockstep"), None)
    seconds = [(index % 7) * 2.0**-10 for index in range(100_000)]  # exact binary sums
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for value in seconds:
            service.metrics.record_phase("cohort_execution", value)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1_000_000
    assert service.stats()["scheduler_phase_totals_s"]["cohort_execution"] == sum(seconds)


def gated_failing_program():
    """Parks on the gate like ``gated_program``, then raises."""
    gated_program()
    raise RuntimeError("simulator exploded after the gate")


def test_a_failed_coalesced_request_counts_as_failed(gate):
    """The primary and the request coalesced onto it both fail: both count."""
    model = FunctionModel(gated_failing_program, name="gated-failing")
    with PosteriorService(model, None, num_workers=1) as service:
        primary = service.submit(GATED_OBSERVATION, num_traces=2)
        assert wait_for(ENTERED)  # the primary's cohort is running, parked on the gate
        follower = service.submit(GATED_OBSERVATION, num_traces=2)
        gate.value = 1
        for future in (primary, follower):
            with pytest.raises(RuntimeError, match="after the gate"):
                future.result(timeout=60)
        stats = service.stats()
    assert stats["cache_hits"] == 1  # the follower attached to the primary
    assert (stats["submitted"], stats["completed"], stats["failed"]) == (2, 0, 2)

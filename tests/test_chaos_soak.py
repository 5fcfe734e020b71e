"""Chaos soak: randomized fault plans against the full serving stack.

The gate the robustness work answers to: under injected worker crashes,
straggler delays, admission-reject bursts and transport drops, the service
must (1) never hang — every submitted future resolves within the timeout;
(2) never lose a future — each resolves with a posterior or a typed serving
error; (3) keep the determinism contract — every non-shed request's posterior
is bit-identical to a direct engine run with the same seed; (4) make every
injected fault observable in ``service.stats()``; and (5) leave a capture
that replays bit-identically, so a failing seed is a committable regression
case.

Seeds are overridable for CI triage: ``CHAOS_SEEDS=17,99 pytest
tests/test_chaos_soak.py`` re-runs exactly the failing schedules.
"""

import os

import pytest

from repro.common.rng import RandomState
from repro.ppl import FunctionModel
from repro.ppl.inference.batched import batched_importance_sampling
from repro.ppl.inference.inference_compilation import InferenceCompilation
from repro.ppl.nn.embeddings import ObservationEmbeddingFC
from repro.serving import (
    CircuitBreaker,
    PosteriorService,
    RetryPolicy,
    ServiceOverloaded,
    ServiceResilience,
    posterior_digest,
    replay_capture,
)
from repro.testing import FaultPlan, FaultRule, activate, faults
from tests.test_batched_inference import OBSERVATION, lockstep_program

CHAOS_SEEDS = [
    int(token)
    for token in os.environ.get("CHAOS_SEEDS", "101,202,303").split(",")
    if token.strip()
]


@pytest.fixture(scope="module")
def served_engine():
    model = FunctionModel(lockstep_program, name="lockstep")
    engine = InferenceCompilation(
        observation_embedding=ObservationEmbeddingFC(input_dim=4, embedding_dim=16),
        observe_key="obs",
        rng=RandomState(0),
    )
    engine.train(model, num_traces=400, minibatch_size=20, learning_rate=3e-3)
    return model, engine


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    yield
    faults.clear()


def thread_chaos_plan(seed: int) -> FaultPlan:
    """Transient cohort errors + stragglers + admission bursts, from one seed.

    The error budget (limit=3) stays under the retry budget the soak grants
    (max_attempts=4), so every admitted request is *guaranteed* recoverable —
    any failed future is therefore a lost-future bug, not bad luck.
    """
    return FaultPlan(
        [
            FaultRule(site="workers.cohort", kind="error", probability=0.3, limit=3),
            FaultRule(site="workers.cohort", kind="delay", probability=0.3,
                      delay=0.01, limit=6),
            FaultRule(site="service.admit", kind="reject", probability=0.15, limit=2),
        ],
        seed=seed,
    )


def _assert_seed_identical(model, network, result, seed, num_traces):
    direct = batched_importance_sampling(
        model, OBSERVATION, num_traces=num_traces, batch_size=64,
        network=network, rng=RandomState(seed),
    )
    assert posterior_digest(result.posterior) == posterior_digest(direct)


class TestThreadSoak:
    @pytest.mark.parametrize("chaos_seed", CHAOS_SEEDS)
    def test_soak_thread_backend(self, served_engine, tmp_path, chaos_seed):
        model, engine = served_engine
        plan = thread_chaos_plan(chaos_seed)
        resilience = ServiceResilience(
            RetryPolicy(max_attempts=4, base_delay=0.01, jitter=0.0),
            CircuitBreaker(failure_threshold=100),  # soak retries; breaker storms are tested elsewhere
        )
        capture_path = str(tmp_path / f"chaos-{chaos_seed}.jsonl")
        submitted, shed = {}, 0
        with activate(plan):
            service = PosteriorService(
                model, engine.network, observe_key="obs", max_batch=32,
                max_latency=0.005, num_workers=2, resilience=resilience,
                capture=capture_path,
            ).start()
            try:
                for request_seed in range(8):
                    try:
                        submitted[request_seed] = service.submit(
                            OBSERVATION, num_traces=8, seed=request_seed, use_cache=False
                        )
                    except ServiceOverloaded:
                        shed += 1  # injected queue-full burst: typed, at the door
                # Gate 1+2: every future resolves (no hangs, no lost futures)
                # and — by construction of the plan's error budget — resolves
                # successfully.
                results = {
                    seed: future.result(timeout=120)
                    for seed, future in submitted.items()
                }
                stats = service.stats()
            finally:
                service.stop()
        # Gate 3: bit-identical posteriors for every non-shed request.
        for request_seed, result in results.items():
            _assert_seed_identical(model, engine.network, result, request_seed, 8)
        # Gate 4: every injected fault is observable in the metrics surface.
        assert stats["faults_injected"] == plan.total_fired()
        assert stats["faults"] == plan.fired_counts()
        assert stats["rejected_overload"] == shed == plan.fired_counts().get(
            "service.admit/reject", 0
        )
        injected_errors = plan.fired_counts().get("workers.cohort/error", 0)
        assert stats["retries"] >= min(injected_errors, 1)
        assert stats["failed"] == 0
        # Gate 5: the chaos capture replays bit-identically on a clean service.
        faults.clear()
        with PosteriorService(
            model, engine.network, observe_key="obs", max_batch=32,
            max_latency=0.005, num_workers=2,
        ) as replay_service:
            report = replay_capture(capture_path, replay_service)
        assert report.ok
        assert report.matched == len(results)


class TestProcessSoak:
    def test_soak_process_backend_with_worker_crashes(self, served_engine):
        model, engine = served_engine
        chaos_seed = CHAOS_SEEDS[0]
        plan = FaultPlan.randomized(chaos_seed)
        resilience = ServiceResilience(
            RetryPolicy(max_attempts=4, base_delay=0.02, jitter=0.0),
            CircuitBreaker(failure_threshold=100),
        )
        submitted, shed = {}, 0
        with activate(plan):
            service = PosteriorService(
                model, engine.network, observe_key="obs", max_batch=32,
                max_latency=0.005, num_workers=2, backend="process",
                resilience=resilience,
            ).start()
            try:
                for request_seed in range(6):
                    try:
                        submitted[request_seed] = service.submit(
                            OBSERVATION, num_traces=8, seed=request_seed, use_cache=False
                        )
                    except ServiceOverloaded:
                        shed += 1
                results = {
                    seed: future.result(timeout=180)
                    for seed, future in submitted.items()
                }
                stats = service.stats()
            finally:
                service.stop()
        assert len(results) + shed == 6
        for request_seed, result in results.items():
            _assert_seed_identical(model, engine.network, result, request_seed, 8)
        assert stats["faults_injected"] == plan.total_fired()
        crashes = plan.fired_counts().get("procpool.dispatch/crash", 0)
        assert stats["workers"]["worker_crashes"] >= crashes
        # The pool re-runs nothing: each crashed shard came back through a retry.
        assert stats["retries"] >= crashes
        assert stats["failed"] == 0

"""Tests of compiled trace-type execution plans (repro.ppl.inference.plans).

The acceptance gate is bit-identity: a cohort that runs on the planned fast
path must produce the same sample values, the same importance weights and the
same post-run generator states as the dynamic lockstep path — planned
execution may only ever change speed.  On top of that gate: bucket reuse
(a B=3 cohort on a bucket-4 plan), divergence demotion (the loopy model),
cache invalidation on retraining, engine-stat key parity, and nonzero
plan-cache hits through the serving layer on both worker backends.
"""

import numpy as np
import pytest

from repro.common.rng import RandomState
from repro.ppl import FunctionModel
from repro.ppl.inference.batched import (
    ENGINE_STAT_KEYS,
    TraceJob,
    batched_importance_sampling,
    execute_trace_jobs,
    merge_engine_stats,
    new_engine_stats,
    per_trace_keys,
    resolve_observation_array,
)
from repro.ppl.inference.inference_compilation import InferenceCompilation
from repro.ppl.inference.plans import (
    DEFAULT_BUCKET_SIZES,
    PlanCache,
    bucket_size_for,
    compile_plan,
)
from repro.ppl.nn.embeddings import ObservationEmbeddingFC
from repro.ppl.nn.inference_network import DrawnProposal
from repro.serving import PosteriorService
from tests.conftest import built_streams
from tests.test_batched_inference import (
    OBSERVATION,
    lockstep_engine,  # noqa: F401 - module fixture
    lockstep_program,
    loopy_engine,  # noqa: F401 - module fixture
)


def controlled_values(trace):
    return [(s.address, s.value) for s in trace.samples if s.controlled]


def make_jobs(network, observation, keys, observe_key="obs"):
    array = resolve_observation_array(network, observation, observe_key)
    return [TraceJob(i, observation, array, key) for i, key in enumerate(keys)]


def warm_cache(model, network, observation, cache, batch_size, seed=99, runs=2):
    """Run enough seeded cohorts through ``cache`` to compile + serve a plan."""
    for offset in range(runs):
        batched_importance_sampling(
            model, observation, num_traces=batch_size, batch_size=batch_size,
            network=network, rng=RandomState(seed + offset), plan_cache=cache,
        )
    return cache


# ------------------------------------------------------------------ unit layer
class TestPlanPrimitives:
    def test_bucket_size_rounds_up(self):
        assert bucket_size_for(1) == 1
        assert bucket_size_for(3) == 4
        assert bucket_size_for(16) == 16
        assert bucket_size_for(33) == 64
        top = DEFAULT_BUCKET_SIZES[-1]
        assert bucket_size_for(top + 1) == 2 * top

    def test_planned_proposal_replays_stored_draw(self):
        stub = DrawnProposal(1.25, -0.5)
        assert stub.sample(RandomState(0)) == 1.25
        assert stub.log_prob(1.25) == -0.5

    def test_compile_plan_matches_trace_schedule(self, lockstep_engine):
        model, engine = lockstep_engine
        cache = PlanCache()
        warm_cache(model, engine.network, OBSERVATION, cache, batch_size=8)
        leased = cache.lease(engine.network, 8)
        assert leased is not None
        plan, scratch = leased
        try:
            assert [step.address for step in plan.steps] == ["addr_a", "addr_b", "addr_c"]
            assert plan.bucket_size == 8
            assert plan.network_version == engine.network.version
        finally:
            cache.release(plan, scratch)


# ------------------------------------------------------------ engine identity
class TestPlannedDynamicBitIdentity:
    def test_samples_and_weights_bit_identical(self, lockstep_engine):
        model, engine = lockstep_engine
        cache = PlanCache()
        warm_cache(model, engine.network, OBSERVATION, cache, batch_size=16)
        planned = batched_importance_sampling(
            model, OBSERVATION, num_traces=48, batch_size=16,
            network=engine.network, rng=RandomState(21), plan_cache=cache,
        )
        dynamic = batched_importance_sampling(
            model, OBSERVATION, num_traces=48, batch_size=16,
            network=engine.network, rng=RandomState(21),
        )
        assert planned.engine_stats["plan_hits"] > 0
        assert planned.engine_stats["num_planned_cohorts"] > 0
        assert planned.engine_stats["num_plan_divergences"] == 0
        for planned_trace, dynamic_trace in zip(planned.values, dynamic.values):
            assert controlled_values(planned_trace) == controlled_values(dynamic_trace)
        assert np.array_equal(
            np.asarray(planned.log_weights), np.asarray(dynamic.log_weights)
        )

    def test_generator_states_bit_identical(self, lockstep_engine):
        """Planned cohorts consume each trace's random stream exactly as the
        dynamic path does — the post-run bit-generator states must match."""
        model, engine = lockstep_engine
        cache = PlanCache()
        warm_cache(model, engine.network, OBSERVATION, cache, batch_size=8)

        jobs = make_jobs(engine.network, OBSERVATION, per_trace_keys(RandomState(5), 8))
        with built_streams() as planned_rngs:
            planned_traces, planned_stats = execute_trace_jobs(
                model, jobs, engine.network, plan_cache=cache
            )
        with built_streams() as dynamic_rngs:
            dynamic_traces, _ = execute_trace_jobs(model, jobs, engine.network)
        assert planned_stats["plan_hits"] == 1
        for planned_trace, dynamic_trace in zip(planned_traces, dynamic_traces):
            assert controlled_values(planned_trace) == controlled_values(dynamic_trace)
        for job in jobs:
            assert (
                planned_rngs[job.key].generator.bit_generator.state
                == dynamic_rngs[job.key].generator.bit_generator.state
            )

    def test_smaller_cohort_reuses_bigger_bucket(self, lockstep_engine):
        """A B=3 cohort leases the bucket-4 plan (prefix views + scratch
        slices) instead of compiling a second plan, and stays bit-identical."""
        model, engine = lockstep_engine
        cache = PlanCache()
        warm_cache(model, engine.network, OBSERVATION, cache, batch_size=4)
        before = cache.stats()["compiles"]
        planned = batched_importance_sampling(
            model, OBSERVATION, num_traces=3, batch_size=3,
            network=engine.network, rng=RandomState(31), plan_cache=cache,
        )
        dynamic = batched_importance_sampling(
            model, OBSERVATION, num_traces=3, batch_size=3,
            network=engine.network, rng=RandomState(31),
        )
        assert planned.engine_stats["plan_hits"] == 1
        assert cache.stats()["compiles"] == before  # reused, not recompiled
        for planned_trace, dynamic_trace in zip(planned.values, dynamic.values):
            assert controlled_values(planned_trace) == controlled_values(dynamic_trace)
        assert np.array_equal(
            np.asarray(planned.log_weights), np.asarray(dynamic.log_weights)
        )


# ------------------------------------------------------- divergence/demotion
class TestDivergenceFallback:
    def test_loopy_model_diverges_matches_dynamic_and_demotes(self, loopy_engine):
        """Variable-length control flow mispredicts the leased plan: the
        session falls back to the dynamic path mid-cohort (bit-identically)
        and repeated mid-plan divergence demotes the trace type."""
        model, engine = loopy_engine
        cache = PlanCache()
        # Watch the demotion decisions where the cache makes them: the
        # engine's plan_demotions must move by exactly that many.
        demoted = []
        record_divergence = cache.record_divergence

        def counted_divergence(plan, at_step):
            demoted.append(record_divergence(plan, at_step))
            return demoted[-1]

        cache.record_divergence = counted_divergence
        observation = {"obs": 1.2}
        results = []
        for offset in range(6):
            results.append(
                batched_importance_sampling(
                    model, observation, num_traces=16, batch_size=16,
                    network=engine.network, rng=RandomState(41 + offset),
                    plan_cache=cache,
                )
            )
        merged = new_engine_stats()
        for result in results:
            merge_engine_stats(merged, result.engine_stats)
        assert merged["num_plan_divergences"] > 0
        assert merged["num_plan_divergences"] == len(demoted)
        assert merged["plan_demotions"] == sum(demoted) >= 1
        for offset, planned in enumerate(results):
            dynamic = batched_importance_sampling(
                model, observation, num_traces=16, batch_size=16,
                network=engine.network, rng=RandomState(41 + offset),
            )
            for planned_trace, dynamic_trace in zip(planned.values, dynamic.values):
                assert controlled_values(planned_trace) == controlled_values(dynamic_trace)
            assert np.array_equal(
                np.asarray(planned.log_weights), np.asarray(dynamic.log_weights)
            )


# ----------------------------------------------------------------- invalidation
class TestInvalidation:
    def test_retraining_drops_compiled_plans(self, lockstep_engine):
        model, engine = lockstep_engine
        cache = PlanCache()
        warm_cache(model, engine.network, OBSERVATION, cache, batch_size=8)
        assert cache.stats()["plans"] == 1
        engine.network.notify_updated()
        try:
            assert cache.lease(engine.network, 8) is None  # cold again
            stats = cache.stats()
            assert stats["invalidations"] == 1
            assert stats["plans"] == 0
            assert stats["trace_types"] == 0
            # The cache recovers: new observations recompile under the new version.
            warm_cache(model, engine.network, OBSERVATION, cache, batch_size=8, seed=77)
            assert cache.stats()["plans"] == 1
        finally:
            # notify_updated above rolled the version; leave a consistent
            # module fixture behind for whatever test runs next.
            engine.network.notify_updated()

    def test_stale_lease_release_is_dropped(self, lockstep_engine):
        model, engine = lockstep_engine
        cache = PlanCache()
        warm_cache(model, engine.network, OBSERVATION, cache, batch_size=4)
        leased = cache.lease(engine.network, 4)
        assert leased is not None
        plan, scratch = leased
        cache.invalidate()
        cache.release(plan, scratch)  # must not resurrect the stale plan
        assert cache.stats()["plans"] == 0


# -------------------------------------------------------------- stat key parity
class TestEngineStatKeys:
    def test_new_engine_stats_matches_key_set(self):
        assert set(new_engine_stats()) == set(ENGINE_STAT_KEYS)
        assert len(ENGINE_STAT_KEYS) == len(set(ENGINE_STAT_KEYS))

    def test_merge_accepts_unknown_keys(self):
        """A worker process running newer engine code may ship counters this
        generation does not know; merging must keep them, not KeyError."""
        into = new_engine_stats()
        merge_engine_stats(into, {"num_cohorts": 2, "future_counter": 5})
        assert into["num_cohorts"] == 2
        assert into["future_counter"] == 5

    def test_plan_counters_are_registered(self):
        for key in (
            "plan_hits", "plan_misses", "plan_demotions",
            "num_planned_cohorts", "num_planned_rounds",
            "num_plan_divergences", "num_plan_geometry_misses",
        ):
            assert key in ENGINE_STAT_KEYS


# ------------------------------------------------------------------- serving
class TestServingPlans:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_served_posteriors_bit_identical_with_plan_hits(
        self, lockstep_engine, backend
    ):
        model, engine = lockstep_engine
        results = {}
        for use_plans in (True, False):
            service = PosteriorService(
                model, engine.network, observe_key="obs", backend=backend,
                num_workers=2, max_batch=16, shard_min=8, use_plans=use_plans,
            )
            with service:
                posteriors = [
                    service.posterior(
                        OBSERVATION, 32, seed=61 + run, use_cache=False, timeout=120
                    ).posterior
                    for run in range(3)
                ]
                results[use_plans] = (posteriors, service.stats())
        planned_posteriors, planned_stats = results[True]
        dynamic_posteriors, dynamic_stats = results[False]
        for planned, dynamic in zip(planned_posteriors, dynamic_posteriors):
            for planned_trace, dynamic_trace in zip(planned.values, dynamic.values):
                assert controlled_values(planned_trace) == controlled_values(dynamic_trace)
            assert np.array_equal(
                np.asarray(planned.log_weights), np.asarray(dynamic.log_weights)
            )
        assert planned_stats["engine"]["plan_hits"] > 0
        assert dynamic_stats["engine"]["plan_hits"] == 0
        if backend == "thread":
            assert planned_stats["plans"]["compiles"] > 0
        else:
            assert "plans" not in planned_stats  # per-process caches, no local one

    def test_retraining_invalidates_serving_plan_cache(self, lockstep_engine):
        model, engine = lockstep_engine
        service = PosteriorService(
            model, engine.network, observe_key="obs", backend="thread",
            num_workers=2, max_batch=16, shard_min=8,
        )
        with service:
            service.posterior(OBSERVATION, 16, seed=71, use_cache=False, timeout=120)
            assert service.stats()["plans"]["plans"] >= 0
            engine.network.notify_updated()
            stats = service.stats()["plans"]
            assert stats["invalidations"] >= 1
            assert stats["plans"] == 0
            # Serving keeps working (and re-plans) on the new generation.
            result = service.posterior(
                OBSERVATION, 16, seed=72, use_cache=False, timeout=120
            )
            assert len(result.posterior.values) == 16

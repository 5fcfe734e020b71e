"""Tests of the posterior serving subsystem.

Covers the acceptance properties of the serving layer: cache hit/miss
semantics (LRU, frozen summaries), deadline shedding and admission
control, and the seeded-equivalence guarantee — a micro-batched request
returns the same posterior as a direct ``posterior()`` call with the same
seed, no matter how the scheduler packed it into cohorts.
"""

import pickle
import threading
import time

import numpy as np
import pytest

from repro.common.rng import RandomState
from repro.ppl import FunctionModel
from repro.ppl.empirical import Empirical, FrozenPosterior
from repro.ppl.inference.batched import batched_importance_sampling
from repro.ppl.inference.inference_compilation import InferenceCompilation
from repro.ppl.nn.embeddings import ObservationEmbeddingFC
from repro.serving import (
    DeadlineExceeded,
    PosteriorCache,
    PosteriorService,
    ServiceOverloaded,
    ServiceResilience,
    ServingMetrics,
    observation_fingerprint,
)
from tests.test_batched_inference import OBSERVATION, lockstep_program
from tests.test_cohort_executor import (  # noqa: F401 - gate is a fixture
    ENTERED,
    POOLS,
    gate,
    gated_program,
    raising_program,
    simple_shards,
    wait_for,
)

OBSERVATION_B = {"obs": np.array([0.2, -0.4, 0.8, 0.6])}


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


def make_service(model, engine, **kwargs):
    defaults = dict(observe_key="obs", max_batch=32, max_latency=0.01, num_workers=2)
    defaults.update(kwargs)
    return PosteriorService(model, engine.network, **defaults)


class TestSeededEquivalence:
    def test_served_posterior_identical_to_direct_inference(self, served_engine):
        model, engine = served_engine
        with make_service(model, engine) as service:
            futures = {
                seed: service.submit(OBSERVATION, num_traces=16, seed=seed, use_cache=False)
                for seed in (7, 11, 13)
            }
            served = {seed: future.result(timeout=60) for seed, future in futures.items()}
        for seed, result in served.items():
            direct = batched_importance_sampling(
                model, OBSERVATION, num_traces=16, batch_size=64,
                network=engine.network, rng=RandomState(seed),
            )
            assert not result.cached
            for latent in ("a", "b", "c"):
                assert result.posterior.extract(latent).mean == pytest.approx(
                    direct.extract(latent).mean, abs=1e-9
                )
            assert result.posterior.log_evidence == pytest.approx(direct.log_evidence, abs=1e-9)

    @pytest.mark.parametrize("num_workers", [1, 2, 3])
    def test_posterior_does_not_depend_on_sharding(self, served_engine, num_workers):
        # One 10-trace request dealt over 1, 2 or 3 workers (shards of
        # [10], [5, 5] or [4, 3, 3]) merges back into the direct posterior:
        # every trace, with its own weight, in request order.
        model, engine = served_engine
        with make_service(
            model, engine, num_workers=num_workers, shard_min=1, max_latency=0.05
        ) as service:
            result = service.posterior(OBSERVATION, num_traces=10, seed=12, use_cache=False, timeout=60)
            stats = service.stats()
        direct = batched_importance_sampling(
            model, OBSERVATION, num_traces=10, batch_size=64,
            network=engine.network, rng=RandomState(12),
        )
        served = result.posterior
        assert stats["workers"]["shards_executed"] == num_workers
        assert len(served) == 10
        assert stats["engine"]["num_batched_steps"] > 0
        np.testing.assert_allclose(served.log_weights, direct.log_weights, rtol=0, atol=1e-9)
        np.testing.assert_allclose(
            [t["a"] for t in served.values], [t["a"] for t in direct.values], rtol=0, atol=1e-9
        )
        assert served.effective_sample_size() == pytest.approx(
            direct.effective_sample_size(), rel=1e-9
        )

    def test_equivalence_survives_mixed_observation_cohorts(self, served_engine):
        model, engine = served_engine
        # Two different observations submitted back-to-back land in the same
        # cohort (max_latency gives the scheduler time to coalesce them).
        with make_service(model, engine, max_latency=0.05, num_workers=1) as service:
            future_a = service.submit(OBSERVATION, num_traces=12, seed=3, use_cache=False)
            future_b = service.submit(OBSERVATION_B, num_traces=12, seed=5, use_cache=False)
            result_a = future_a.result(timeout=60)
            result_b = future_b.result(timeout=60)
            stats = service.stats()
        assert stats["mixed_cohort_fraction"] > 0  # they really shared a cohort
        for observation, seed, result in (
            (OBSERVATION, 3, result_a),
            (OBSERVATION_B, 5, result_b),
        ):
            direct = batched_importance_sampling(
                model, observation, num_traces=12, batch_size=64,
                network=engine.network, rng=RandomState(seed),
            )
            assert result.posterior.extract("a").mean == pytest.approx(
                direct.extract("a").mean, abs=1e-9
            )


class TestCacheSemantics:
    def test_repeat_query_hits_cache_with_frozen_summary(self, served_engine):
        model, engine = served_engine
        with make_service(model, engine) as service:
            first = service.posterior(OBSERVATION, num_traces=8, seed=1, timeout=60)
            second = service.posterior(OBSERVATION, num_traces=8, seed=99, timeout=60)
            assert not first.cached
            assert second.cached
            assert isinstance(second.posterior, FrozenPosterior)
            # The frozen summary reports the same marginals the fresh run did.
            assert second.posterior.extract("a").mean == pytest.approx(
                first.posterior.extract("a").mean
            )
            assert service.cache.hits == 1

    def test_different_observation_or_budget_misses(self, served_engine):
        model, engine = served_engine
        with make_service(model, engine) as service:
            service.posterior(OBSERVATION, num_traces=8, timeout=60)
            other_obs = service.posterior(OBSERVATION_B, num_traces=8, timeout=60)
            other_budget = service.posterior(OBSERVATION, num_traces=12, timeout=60)
            assert not other_obs.cached
            assert not other_budget.cached
            assert service.cache.hits == 0

    def test_use_cache_false_forces_inference_and_refreshes(self, served_engine):
        model, engine = served_engine
        with make_service(model, engine) as service:
            service.posterior(OBSERVATION, num_traces=8, timeout=60)
            forced = service.posterior(OBSERVATION, num_traces=8, use_cache=False, timeout=60)
            assert not forced.cached
            hit = service.posterior(OBSERVATION, num_traces=8, timeout=60)
            assert hit.cached

    def test_cache_unit_lru(self):
        cache = PosteriorCache(capacity=2)
        frozen = Empirical([1.0, 2.0], [0.0, 0.0]).freeze()
        cache.put("a", frozen)
        cache.put("b", frozen)
        assert cache.lookup("a") is frozen  # refreshes LRU order
        cache.put("c", frozen)  # evicts "b" (least recently used)
        assert cache.lookup("b") is None
        assert cache.evictions == 1
        disabled = PosteriorCache(capacity=0)
        disabled.put("x", frozen)
        assert disabled.lookup("x") is None

    def test_lookup_returns_the_posterior_and_can_defer_the_miss(self):
        cache = PosteriorCache(capacity=4)
        frozen = Empirical([1.0, 2.0], [0.0, 0.0]).freeze()
        assert cache.lookup("a", record_miss=False) is None
        assert (cache.hits, cache.misses) == (0, 0)
        cache.record_miss()
        cache.put("a", frozen)
        assert cache.lookup("a", record_miss=False) is frozen
        assert cache.lookup("b") is None
        assert (cache.hits, cache.misses) == (1, 2)

    @pytest.mark.parametrize("option", ["ttl", "clock"])
    def test_cache_entries_have_no_expiry_option(self, option):
        with pytest.raises(TypeError):
            PosteriorCache(capacity=4, **{option: 1.0})

    def test_fingerprint_sensitivity(self):
        base = observation_fingerprint({"obs": np.array([1.0, 2.0])}, "m", 10)
        assert observation_fingerprint({"obs": np.array([1.0, 2.0])}, "m", 10) == base
        assert observation_fingerprint({"obs": np.array([1.0, 2.1])}, "m", 10) != base
        assert observation_fingerprint({"obs": np.array([1.0, 2.0])}, "m", 11) != base
        assert observation_fingerprint({"obs": np.array([1.0, 2.0])}, "m2", 10) != base
        reshaped = observation_fingerprint({"obs": np.array([[1.0], [2.0]])}, "m", 10)
        assert reshaped != base


class TestServiceOptions:
    @pytest.mark.parametrize(
        "option", ["cache_ttl", "mp_start_method", "default_num_traces", "max_requeues"]
    )
    def test_removed_option_is_rejected(self, option):
        with pytest.raises(TypeError):
            PosteriorService(None, None, **{option: 1})

    @pytest.mark.parametrize(
        "call",
        ["ServiceResilience(demote_after=)", "ServingMetrics(window=)", "ServingMetrics(clock=)"],
    )
    def test_removed_serving_option_is_rejected(self, call):
        calls = {
            "ServiceResilience(demote_after=)": lambda: ServiceResilience(demote_after=1),
            "ServingMetrics(window=)": lambda: ServingMetrics(window=16),
            "ServingMetrics(clock=)": lambda: ServingMetrics(clock=time.monotonic),
        }
        with pytest.raises(TypeError):
            calls[call]()

    def test_default_trace_budget_is_one_hundred(self, served_engine):
        model, engine = served_engine
        with make_service(model, engine) as service:
            assert service.posterior(OBSERVATION, seed=3, timeout=60).num_traces == 100


class TestAdmissionControl:
    def test_deadline_shedding(self, served_engine):
        model, engine = served_engine
        # The scheduler waits max_latency for co-batchable traffic; the
        # request's deadline expires first, so it must be shed, not served.
        with make_service(model, engine, max_latency=0.5) as service:
            future = service.submit(OBSERVATION, num_traces=4, deadline=0.05, use_cache=False)
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=30)
            assert service.metrics.shed_deadline == 1
            assert service.scheduler.stats()["num_shed_requests"] == 1

    def test_overload_rejection(self, served_engine):
        model, engine = served_engine
        with make_service(model, engine, queue_capacity=8) as service:
            with pytest.raises(ServiceOverloaded):
                service.submit(OBSERVATION, num_traces=16, use_cache=False)
            assert service.metrics.rejected_overload == 1

    def test_submit_after_stop_rejected(self, served_engine):
        model, engine = served_engine
        service = make_service(model, engine).start()
        service.stop()
        with pytest.raises(ServiceOverloaded):
            service.submit(OBSERVATION, num_traces=4)
        service.stop()  # idempotent

    def test_validation_errors_surface_at_submit(self, served_engine):
        model, engine = served_engine
        with make_service(model, engine) as service:
            with pytest.raises(ValueError):
                service.submit({"wrong_key": 1.0}, num_traces=4)
            with pytest.raises(ValueError):
                service.submit(OBSERVATION, num_traces=4, deadline=-1.0)
            with pytest.raises(ValueError):
                service.submit(OBSERVATION, num_traces=0)


class TestConcurrentServing:
    def test_concurrent_clients_all_complete_with_coalescing(self, served_engine):
        model, engine = served_engine
        num_clients = 8
        results = [None] * num_clients
        with make_service(model, engine, max_latency=0.05, max_batch=64) as service:
            barrier = threading.Barrier(num_clients)

            def client(index):
                barrier.wait()
                observation = OBSERVATION if index % 2 == 0 else OBSERVATION_B
                results[index] = service.posterior(
                    observation, num_traces=8, seed=index, use_cache=False, timeout=60
                )

            threads = [threading.Thread(target=client, args=(i,)) for i in range(num_clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            stats = service.stats()
        assert all(result is not None for result in results)
        assert stats["completed"] == num_clients
        # 8 requests x 8 traces coalesced into far fewer cohorts than requests.
        assert stats["engine"]["num_cohorts"] < num_clients
        assert stats["mixed_cohort_fraction"] > 0
        assert stats["latency_p99_s"] >= stats["latency_p50_s"] > 0

    def test_smoke_concurrent_requests_with_cache_hits(self, served_engine):
        # The CI serving-smoke contract: an in-process server, N concurrent
        # clients (some asking about the same observation), every request
        # completes, and the repeat queries hit the cache.
        model, engine = served_engine
        num_clients = 12
        observations = [OBSERVATION, OBSERVATION_B]
        results = [None] * num_clients
        with make_service(model, engine, max_latency=0.02) as service:
            def client(index):
                results[index] = service.posterior(
                    observations[index % 2], num_traces=8, timeout=60
                )

            threads = [threading.Thread(target=client, args=(i,)) for i in range(num_clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            stats = service.stats()
        assert all(result is not None for result in results)
        assert stats["completed"] == num_clients
        assert stats["cache_hit_rate"] > 0
        assert stats["failed"] == 0

    def test_threaded_inference_leaves_grad_mode_enabled(self, served_engine):
        from repro.tensor import Tensor

        model, engine = served_engine
        with make_service(model, engine, num_workers=4, shard_min=2) as service:
            for seed in range(5):
                service.posterior(OBSERVATION, num_traces=8, seed=seed, use_cache=False, timeout=60)
                assert Tensor(np.ones(1), requires_grad=True).requires_grad

    def test_drain_on_stop_completes_inflight_requests(self, served_engine):
        model, engine = served_engine
        service = make_service(model, engine, max_latency=0.2).start()
        future = service.submit(OBSERVATION, num_traces=8, seed=2, use_cache=False)
        service.stop(drain=True)
        assert future.result(timeout=10).num_traces == 8


class TestFailurePaths:
    def test_finalize_failure_reaches_client_and_clears_registry(self, served_engine):
        # A crash while *forming* the posterior (after every trace delivered)
        # must resolve the future with the error — not leave it pending — and
        # must not leave a stale single-flight entry feeding that error to
        # every later identical query.
        model, engine = served_engine

        class NoLogQModel(FunctionModel):
            def get_trace(self, controller=None, observed_values=None, rng=None):
                trace = super().get_trace(controller, observed_values=observed_values, rng=rng)
                del trace.log_q
                return trace

        stripped = NoLogQModel(lockstep_program, name="no_log_q")
        with make_service(stripped, engine) as service:
            future = service.submit(OBSERVATION, num_traces=4, use_cache=True)
            with pytest.raises(ValueError, match="log_q"):
                future.result(timeout=30)
            assert service.metrics.failed == 1
            # The registry entry is gone: a new identical query runs fresh
            # inference (and fails the same way for this model) instead of
            # being handed the dead primary's old exception forever.
            second = service.submit(OBSERVATION, num_traces=4, use_cache=True)
            with pytest.raises(ValueError, match="log_q"):
                second.result(timeout=30)
            assert service.metrics.failed == 2

    def test_single_flight_counts_one_cache_outcome_per_request(self, served_engine):
        model, engine = served_engine
        num_clients = 6
        with make_service(model, engine, max_latency=0.05) as service:
            barrier = threading.Barrier(num_clients)
            results = [None] * num_clients

            def client(index):
                barrier.wait()
                results[index] = service.posterior(OBSERVATION, num_traces=8, timeout=60)

            threads = [threading.Thread(target=client, args=(i,)) for i in range(num_clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            stats = service.stats()
            cache_stats = service.cache.stats()
        assert all(result is not None for result in results)
        # Exactly one cache outcome per request: hits + misses == submitted,
        # with the coalesced/caught requests as hits and the one primary as
        # the only miss.
        assert stats["cache_hits"] + stats["cache_misses"] == num_clients
        assert stats["cache_misses"] == 1
        assert stats["cache_hits"] == num_clients - 1
        # The service reports the cache's own counters (coalesced requests
        # are counted as hits by the cache, once).
        assert cache_stats["hits"] == stats["cache_hits"]
        assert cache_stats["misses"] == stats["cache_misses"]

    def test_remote_models_serialize_to_one_worker(self):
        from repro.ppl.model import RemoteModel
        from repro.ppx.transport import make_queue_pair

        ppl_side, _sim_side = make_queue_pair()
        remote = RemoteModel(ppl_side)
        # One unsynchronized PPX transport: the pool must never run two of
        # its cohorts concurrently, whatever the caller asked for.
        service = PosteriorService(remote, None, num_workers=4)
        assert service.workers.num_workers == 1

    def test_full_flush_reports_full_occupancy_despite_sharding(self, served_engine):
        model, engine = served_engine
        # A full 32-job flush split over 2 workers must still report the
        # flush-level occupancy (1.0), not the per-shard fraction.
        with make_service(
            model, engine, max_batch=32, max_latency=0.2, num_workers=2, shard_min=8
        ) as service:
            futures = [
                service.submit(OBSERVATION, num_traces=16, seed=i, use_cache=False)
                for i in range(2)
            ]
            for future in futures:
                future.result(timeout=60)
            stats = service.stats()
        assert stats["mean_cohort_occupancy"] == pytest.approx(1.0)


class TestFrozenPosterior:
    def test_freeze_preserves_marginal_summaries(self, served_engine):
        model, engine = served_engine
        posterior = batched_importance_sampling(
            model, OBSERVATION, num_traces=32, batch_size=32,
            network=engine.network, rng=RandomState(21),
        )
        frozen = posterior.freeze()
        assert sorted(frozen._marginals) == ["a", "b", "c"]
        for latent in ("a", "b", "c"):
            assert frozen.extract(latent).mean == pytest.approx(posterior.extract(latent).mean)
            assert frozen.extract(latent).stddev == pytest.approx(
                posterior.extract(latent).stddev
            )
        assert frozen.log_evidence == pytest.approx(posterior.log_evidence)
        assert frozen.effective_sample_size() == pytest.approx(
            posterior.effective_sample_size()
        )
        assert len(frozen) == len(posterior)
        with pytest.raises(KeyError):
            frozen.extract("nonexistent")

    def test_frozen_posterior_pickles(self, served_engine):
        model, engine = served_engine
        posterior = batched_importance_sampling(
            model, OBSERVATION, num_traces=8, batch_size=8,
            network=engine.network, rng=RandomState(22),
        )
        frozen = posterior.freeze(latents=["a"])
        clone = pickle.loads(pickle.dumps(frozen))
        assert clone.extract("a").mean == pytest.approx(frozen.extract("a").mean)
        assert list(clone._marginals) == ["a"]

    def test_freeze_non_trace_empirical(self):
        emp = Empirical([1.0, 2.0, 3.0], [0.0, -1.0, -2.0], name="scalars")
        frozen = emp.freeze()
        assert list(frozen._marginals) == ["value"]
        assert frozen.extract("value").mean == pytest.approx(emp.mean)


class TestLifecycleAndShutdown:
    @pytest.mark.parametrize("pool_class", POOLS)
    def test_pool_context_manager_and_cancel(self, pool_class, gate):
        from repro.serving import ServingError

        model = FunctionModel(gated_program, name="gated")
        outcomes = []
        with pool_class(model, None, num_workers=1) as pool:
            # The first shard occupies the worker; the second sits in the queue.
            for shard in simple_shards(2):
                pool.submit(shard, lambda e, t, err: outcomes.append(err))
            gate.value = 1
            pool.stop(drain=True)
        assert outcomes == [None, None]
        assert pool.stats()["shards_executed"] == 2

        # Cancel path: the queued shard fails with ServingError instead of
        # running (the worker is parked on the first, un-released shard).
        ENTERED.value = gate.value = 0
        outcomes = []
        pool = pool_class(model, None, num_workers=1).start()
        for shard in simple_shards(2):
            pool.submit(shard, lambda e, t, err: outcomes.append(err))
        assert wait_for(ENTERED)  # the worker is inside the first shard
        pool.stop(drain=False, timeout=0.2)
        assert sum(isinstance(err, ServingError) for err in outcomes) >= 1
        assert pool.stats()["shards_executed"] <= 1

    def test_pending_requests_resolve_or_error_on_close(self, served_engine):
        # The shutdown contract: nothing submitted before stop() is ever
        # abandoned — every future resolves with a result or a ServingError.
        model, engine = served_engine
        service = make_service(model, engine, max_latency=0.5).start()
        futures = [
            service.submit(OBSERVATION, num_traces=4, seed=seed, use_cache=False)
            for seed in range(3)
        ]
        service.stop(drain=False)
        from repro.serving import ServingError

        for future in futures:
            try:
                result = future.result(timeout=10)
            except ServingError:
                continue  # resolved with the documented error: acceptable
            assert result.num_traces == 4  # or resolved with a real posterior
        assert all(future.done() for future in futures)

    def test_second_stop_is_a_no_op(self, served_engine):
        model, engine = served_engine
        service = make_service(model, engine).start()
        service.stop()
        assert not service._running
        service.stop()  # idempotent


class TestCacheInvalidation:
    def test_invalidate_scoped_by_model_id(self):
        cache = PosteriorCache(capacity=8)
        frozen = Empirical([1.0], [0.0]).freeze()
        cache.put("a", frozen, model_id="m1")
        cache.put("b", frozen, model_id="m1")
        cache.put("c", frozen, model_id="m2")
        assert cache.invalidate("m1") == 2
        assert cache.lookup("a") is None and cache.lookup("b") is None
        assert cache.lookup("c") is frozen
        assert cache.invalidate() == 1
        assert len(cache) == 0
        assert cache.stats()["invalidations"] == 3

    def test_explicit_service_invalidation_forces_fresh_inference(self, served_engine):
        model, engine = served_engine
        with make_service(model, engine) as service:
            first = service.posterior(OBSERVATION, num_traces=8, seed=1, timeout=60)
            assert not first.cached
            assert service.posterior(OBSERVATION, num_traces=8, timeout=60).cached
            assert service.invalidate_cache() == 1
            refreshed = service.posterior(OBSERVATION, num_traces=8, seed=1, timeout=60)
            assert not refreshed.cached

    def test_inflight_request_does_not_repollute_invalidated_cache(self, served_engine):
        # A request admitted under network generation N must not write its
        # posterior into the cache after generation N+1 invalidated it — that
        # entry would otherwise be served until evicted.
        model, engine = served_engine
        with make_service(model, engine, max_latency=0.2) as service:
            future = service.submit(OBSERVATION, num_traces=4, use_cache=True)
            # While the request waits out the flush latency, the network is
            # "retrained" (version bump + listener-driven invalidation).
            engine.network.notify_updated()
            assert future.result(timeout=60).num_traces == 4
            assert len(service.cache) == 0  # the old-generation result was not cached
            assert not service.posterior(OBSERVATION, num_traces=4, timeout=60).cached

    def test_retraining_the_network_invalidates_served_posteriors(self, served_engine):
        model, engine = served_engine
        with make_service(model, engine) as service:
            service.posterior(OBSERVATION, num_traces=8, timeout=60)
            assert len(service.cache) == 1
            version_before = engine.network.version
            engine.train(model, num_traces=40, minibatch_size=20, learning_rate=1e-3)
            assert engine.network.version == version_before + 1
            assert len(service.cache) == 0  # listener dropped the old entry
            assert not service.posterior(OBSERVATION, num_traces=8, timeout=60).cached
        # After stop() the listener is unregistered: further training must not
        # call into a stopped service.
        assert service._on_network_updated not in engine.network._update_listeners


@pytest.mark.parametrize("pool_class", POOLS)
class TestWorkerPoolCounters:
    """Pool counters must be exact however many workers resolve shards.

    Thread workers bump them concurrently, and a bare ``+= 1`` is a
    read-modify-write the GIL interleaves at bytecode granularity, so
    unlocked counters silently lose increments.
    """

    def _run(self, pool_class, program, total):
        done = threading.Event()
        remaining = [total]
        count_lock = threading.Lock()

        def on_done(entries, traces, error):
            with count_lock:
                remaining[0] -= 1
                if remaining[0] == 0:
                    done.set()

        with pool_class(FunctionModel(program, name="counted"), None, num_workers=8) as pool:
            for shard in simple_shards(total):
                pool.submit(shard, on_done)
            assert done.wait(timeout=60)
        return pool.stats()

    def test_shards_executed_is_exact_under_concurrency(self, pool_class, gate):
        gate.value = 1
        stats = self._run(pool_class, gated_program, 400)
        assert stats["shards_executed"] == 400
        assert stats["failed_shards"] == 0

    def test_failed_shards_counted_exactly(self, pool_class):
        stats = self._run(pool_class, raising_program, 100)
        assert stats["failed_shards"] == 100
        assert stats["shards_executed"] == 0

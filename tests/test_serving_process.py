"""Tests of the process-based cohort execution backend.

The acceptance contract of ``backend="process"``: seeded posteriors are
bit-identical to the thread backend and to a direct engine call (randomness
is derived in the parent, so *where* a shard runs can never change what it
draws); a worker-process crash fails its shard once, at once, with
``WorkerCrashed`` — never re-runs it, never drops it silently; and the
pool/service shut down cleanly with every submitted future resolved.
"""

import multiprocessing
import os
import pickle
import signal
import threading
import time

import numpy as np
import pytest

from repro.common import utils
from repro.common.rng import RandomState
from repro.ppl import FunctionModel
from repro.ppl.inference.batched import TraceJob, request_key
from repro.ppl.inference.inference_compilation import InferenceCompilation
from repro.ppl.nn.embeddings import ObservationEmbeddingFC
from repro.serving import (
    PosteriorService,
    ProcessCohortPool,
    ServiceOverloaded,
    ServingError,
    WorkerCrashed,
    observation_fingerprint,
    posterior_digest,
)
from repro.serving.procpool import _picklable_error
from repro.testing.faults import FaultPlan, activate
from tests.test_batched_inference import OBSERVATION, lockstep_program
from tests.test_cohort_executor import wait_for


def slow_program():
    """A trace whose body sleeps, so tests can catch a worker mid-shard."""
    import repro.ppl as ppl
    from repro.distributions import Normal, Uniform

    a = ppl.sample(Uniform(-1.0, 1.0), name="a", address="slow_a")
    time.sleep(0.25)
    ppl.observe(Normal(a, 0.5), name="obs")
    return a


SLOW_OBSERVATION = {"obs": np.array(0.3)}


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
    network = engine.network if engine is not None else None
    return PosteriorService(model, network, **defaults)


class TestCrossBackendEquivalence:
    def test_process_thread_and_direct_posteriors_identical(self, served_engine):
        model, engine = served_engine
        seeds = (7, 11)
        results = {}
        for backend in ("thread", "process"):
            with make_service(model, engine, backend=backend) as service:
                futures = {
                    seed: service.submit(OBSERVATION, num_traces=16, seed=seed, use_cache=False)
                    for seed in seeds
                }
                results[backend] = {
                    seed: future.result(timeout=120) for seed, future in futures.items()
                }
                assert service.stats()["backend"] == backend
        for seed in seeds:
            direct = engine.posterior(
                model, OBSERVATION, num_traces=16, rng=RandomState(seed)
            )
            for latent in ("a", "b", "c"):
                direct_mean = direct.extract(latent).mean
                for backend in ("thread", "process"):
                    served = results[backend][seed].posterior.extract(latent).mean
                    assert served == pytest.approx(direct_mean, abs=1e-12)
            for backend in ("thread", "process"):
                assert results[backend][seed].posterior.log_evidence == pytest.approx(
                    direct.log_evidence, abs=1e-12
                )

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_a_counter_only_one_shard_reports_reaches_stats(self, served_engine, monkeypatch, backend):
        # A counter that only the second request's shards report (a newer
        # worker) must reach service.stats(): a merge keyed on the first
        # block it saw would drop it.
        from repro.ppl.inference import batched
        from repro.serving import procpool, workers

        original = batched.execute_trace_jobs

        def with_shard_local_counter(model, jobs, network, plan_cache=None):
            traces, stats = original(model, jobs, network, plan_cache=plan_cache)
            if jobs[0].key[0] == 9:  # the request seed heads every job key
                stats["num_seed_nine_only"] = len(jobs)
            return traces, stats

        # The thread worker's call site and the process worker's (forked, so
        # it inherits the patched module).
        for call_site in (workers, procpool):
            monkeypatch.setattr(call_site, "execute_trace_jobs", with_shard_local_counter)
        model, engine = served_engine
        with make_service(model, engine, backend=backend) as service:
            for seed in (7, 9):
                service.posterior(OBSERVATION, num_traces=16, seed=seed, use_cache=False, timeout=120)
            engine_stats = service.stats()["engine"]
        assert engine_stats["num_seed_nine_only"] == 16
        assert engine_stats["num_cohorts"] >= 2

    def test_trace_jobs_ship_keys_not_generators(self):
        array = np.asarray(OBSERVATION["obs"], dtype=float)
        jobs = TraceJob.for_request(0, OBSERVATION, array, 4, request_key(RandomState(17)))
        payload = pickle.dumps(jobs)
        # Nothing of a generator crosses the boundary: a job is its
        # observation and a tuple of ints.
        assert b"PCG64" not in payload and b"bit_generator" not in payload
        clones = pickle.loads(payload)
        for job, clone in zip(jobs, clones):
            assert np.array_equal(job.observation["obs"], clone.observation["obs"])
            assert clone.key == job.key and all(type(word) is int for word in clone.key)
            # The stream built on the far side is the one built here.
            ours, theirs = job.stream(), clone.stream()
            assert theirs.generator.random() == ours.generator.random()
            assert theirs.generator.normal() == ours.generator.normal()


class TestConditioningKeys:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_a_bad_key_fails_only_its_own_request(self, served_engine, backend):
        # "obz" conditions nothing.  The request naming it shares a cohort
        # with a good one: it fails alone, at weight formation, and caches
        # nothing; its cohort-mate completes, seed-identical to a direct run.
        model, engine = served_engine
        bad_observation = dict(OBSERVATION, obz=1.0)
        with make_service(model, engine, backend=backend, num_workers=1, max_latency=0.2) as service:
            good = service.submit(OBSERVATION, num_traces=8, seed=4)
            bad = service.submit(bad_observation, num_traces=8, seed=5)
            with pytest.raises(ValueError, match=r"\['obz'\].*\['obs'\]"):
                bad.result(timeout=120)
            served = good.result(timeout=120)
            stats = service.stats()
            assert service.cache.lookup(
                observation_fingerprint(bad_observation, service._model_id, 8)
            ) is None
        assert stats["cohorts_executed"] == 1 and stats["engine"]["num_cohorts"] == 1
        assert (stats["completed"], stats["failed"]) == (1, 1)
        assert stats["cache"]["size"] == 1  # the good request's posterior only
        direct = engine.posterior(model, OBSERVATION, num_traces=8, rng=RandomState(4))
        assert posterior_digest(served.posterior) == posterior_digest(direct)


class TestWorkerCrash:
    def _submit_slow_shard(self, pool, num_jobs=2):
        jobs = TraceJob.for_request(0, SLOW_OBSERVATION, None, num_jobs, request_key(RandomState(1)))
        outcome = {}

        def on_done(_entries, traces, error):
            outcome["traces"] = traces
            outcome["error"] = error

        pool.submit(jobs, on_done)
        return outcome

    def _busy_worker(self, pool, timeout=5.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for worker in pool._workers:
                if worker.shard is not None and worker.pipe.process.is_alive():
                    return worker
            time.sleep(0.01)
        raise AssertionError("no worker picked up the shard")

    def _wait_for_outcome(self, outcome, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and not outcome:
            time.sleep(0.02)
        assert outcome, "shard neither completed nor failed"

    @staticmethod
    def _assert_respawned(pool, victim):
        replacement = pool._workers[victim.index]
        assert replacement is not victim
        assert replacement.pipe.process.pid != victim.pipe.process.pid
        assert replacement.pipe.process.is_alive()

    def test_killed_busy_worker_fails_its_shard_at_once(self):
        model = FunctionModel(slow_program, name="slow")
        pool = ProcessCohortPool(model, None, num_workers=2)
        pool.start()
        try:
            outcome = self._submit_slow_shard(pool)
            victim = self._busy_worker(pool)
            os.kill(victim.pipe.process.pid, signal.SIGKILL)
            self._wait_for_outcome(outcome)
            assert isinstance(outcome["error"], WorkerCrashed)
            assert outcome["traces"] is None
            stats = pool.stats()
            assert (stats["worker_crashes"], stats["failed_shards"], stats["shards_executed"]) == (1, 1, 0)
            assert stats["inflight_shards"] == 0  # resolved, not waiting in the queue
            self._assert_respawned(pool, victim)
        finally:
            pool.stop(drain=False)

    def test_service_without_resilience_fails_a_crashed_shard_at_once(self):
        model = FunctionModel(slow_program, name="slow")
        service = PosteriorService(
            model, None, num_workers=1, backend="process", max_latency=0.001,
        ).start()
        try:
            future = service.submit(SLOW_OBSERVATION, num_traces=2, seed=3)
            victim = self._busy_worker(service.workers)
            os.kill(victim.pipe.process.pid, signal.SIGKILL)
            with pytest.raises(WorkerCrashed):
                future.result(timeout=30)
            stats = service.stats()
            assert stats["workers"]["worker_crashes"] == 1
            assert stats["workers"]["failed_shards"] == 1
            assert (stats["completed"], stats["failed"], stats["retries"]) == (0, 1, 0)
            assert stats["cache"]["size"] == 0  # nothing cached
            self._assert_respawned(service.workers, victim)
        finally:
            service.stop(drain=False)


class TestProcessLifecycle:
    def test_pool_context_manager_and_double_stop(self):
        model = FunctionModel(lockstep_program, name="lockstep")
        with ProcessCohortPool(model, None, num_workers=1) as pool:
            jobs = TraceJob.for_request(0, OBSERVATION, None, 3, request_key(RandomState(2)))
            outcome = {}

            def on_done(_entries, traces, error):
                outcome["traces"], outcome["error"] = traces, error

            pool.submit(jobs, on_done)
            pool.stop(drain=True)  # idempotent with the context exit
            assert outcome["error"] is None
            assert len(outcome["traces"]) == 3
        pool.stop()  # after-close stop is a no-op
        with pytest.raises(RuntimeError):
            pool.submit([], lambda *args: None)

    def test_stop_without_drain_fails_pending_futures(self):
        model = FunctionModel(slow_program, name="slow")
        service = PosteriorService(
            model, None, num_workers=1, backend="process", max_latency=0.5
        ).start()
        # Still queued in the scheduler when the service stops: the future
        # must resolve with a ServingError, not hang forever.
        future = service.submit(SLOW_OBSERVATION, num_traces=2, use_cache=False)
        service.stop(drain=False)
        with pytest.raises(ServingError):
            future.result(timeout=10)

    def test_drain_completes_inflight_process_requests(self, served_engine):
        model, engine = served_engine
        service = make_service(model, engine, backend="process", max_latency=0.2).start()
        future = service.submit(OBSERVATION, num_traces=8, seed=2, use_cache=False)
        service.stop(drain=True)
        assert future.result(timeout=10).num_traces == 8

    def test_remote_models_force_thread_backend(self):
        from repro.ppl.model import RemoteModel
        from repro.ppx.transport import make_queue_pair

        ppl_side, _sim_side = make_queue_pair()
        service = PosteriorService(RemoteModel(ppl_side), None, backend="process")
        assert service.backend == "thread"
        assert service.workers.num_workers == 1

    def test_unknown_backend_rejected(self):
        model = FunctionModel(lockstep_program, name="lockstep")
        with pytest.raises(ValueError):
            PosteriorService(model, None, backend="mpi")


    def test_without_fork_the_process_backend_serves_on_threads(self, served_engine, monkeypatch):
        model, engine = served_engine

        def served_digest():
            with make_service(model, engine, backend="process") as service:
                result = service.posterior(OBSERVATION, num_traces=16, seed=7, use_cache=False, timeout=120)
                return service.backend, posterior_digest(result.posterior)

        backend, digest = served_digest()
        assert backend == "process"
        monkeypatch.setattr(utils, "_FORK", None)  # a platform without fork
        assert served_digest() == ("thread", digest)
        with pytest.raises(RuntimeError, match="cannot fork"):
            ProcessCohortPool(model, None, num_workers=1)

    @pytest.mark.parametrize("option", ["start_method", "max_requeues"])
    def test_removed_pool_option_is_rejected(self, option):
        model = FunctionModel(lockstep_program, name="lockstep")
        with pytest.raises(TypeError):
            ProcessCohortPool(model, None, num_workers=1, **{option: 1})


class TestErrorTransport:
    def test_unpicklable_errors_are_wrapped(self):
        class Unpicklable(Exception):
            def __reduce__(self):
                raise TypeError("nope")

        wrapped = _picklable_error(Unpicklable("boom"))
        assert isinstance(wrapped, ServingError)
        assert "Unpicklable" in str(wrapped)
        passthrough = _picklable_error(ValueError("fine"))
        assert isinstance(passthrough, ValueError)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_model_exception_reaches_the_client(self, backend):
        # Without resilience a failed shard fails each of its requests once,
        # on either pool, and nothing is cached or run again.
        def broken_program():
            raise RuntimeError("simulator exploded")

        model = FunctionModel(broken_program, name="broken")
        with PosteriorService(
            model, None, num_workers=1, backend=backend, max_latency=0.2
        ) as service:
            futures = [service.submit({"obs": value}, num_traces=2) for value in (1.0, 2.0)]
            for future in futures:
                with pytest.raises(RuntimeError, match="simulator exploded"):
                    future.result(timeout=30)
            stats = service.stats()
        assert stats["cohorts_executed"] == 1  # both requests in one shard
        assert (stats["workers"]["failed_shards"], stats["workers"]["shards_executed"]) == (1, 0)
        assert (stats["completed"], stats["failed"]) == (0, 2)
        assert stats["cache"]["size"] == 0


def gen1_program():
    import repro.ppl as ppl
    from repro.distributions import Normal, Uniform

    a = ppl.sample(Uniform(-1.0, 1.0), name="a", address="gen1_a")
    ppl.observe(Normal(a, 0.5), name="obs")
    return a


def gen2_program():
    import repro.ppl as ppl
    from repro.distributions import Normal, Uniform

    a = ppl.sample(Uniform(-1.0, 1.0), name="a", address="gen2_a")
    ppl.observe(Normal(a, 0.5), name="obs")
    return a


class TestWorkerRefresh:
    def _run_one_shard(self, pool, num_jobs=2):
        jobs = TraceJob.for_request(0, SLOW_OBSERVATION, None, num_jobs, request_key(RandomState(4)))
        outcome = {}

        def on_done(_entries, traces, error):
            outcome["traces"], outcome["error"] = traces, error

        pool.submit(jobs, on_done)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and not outcome:
            time.sleep(0.01)
        assert outcome and outcome["error"] is None
        return outcome["traces"]

    def test_refresh_rolls_workers_onto_new_model_state(self):
        pool = ProcessCohortPool(FunctionModel(gen1_program, name="gen"), None, num_workers=1)
        pool.start()
        try:
            traces = self._run_one_shard(pool)
            assert traces[0].addresses == ("gen1_a",)
            # The parent swaps in new model state (the in-place-retraining
            # shape); fresh workers must serve it.
            pool.refresh(model=FunctionModel(gen2_program, name="gen"))
            traces = self._run_one_shard(pool)
            assert traces[0].addresses == ("gen2_a",)
        finally:
            pool.stop(drain=False)

    def test_service_process_backend_follows_retraining(self, served_engine):
        model, engine = served_engine
        with make_service(model, engine, backend="process") as service:
            service.posterior(OBSERVATION, num_traces=4, timeout=60)
            generation_before = [worker.pipe.process.pid for worker in service.workers._workers]
            engine.network.notify_updated()
            # The listener rolled the worker generation: new processes.
            generation_after = [worker.pipe.process.pid for worker in service.workers._workers]
            assert set(generation_before).isdisjoint(generation_after)
            # And the rolled pool still serves correctly.
            assert service.posterior(OBSERVATION, num_traces=4, timeout=60).num_traces == 4

    def test_pool_restarts_after_stop(self):
        pool = ProcessCohortPool(FunctionModel(gen1_program, name="gen"), None, num_workers=1)
        pool.start()
        self._run_one_shard(pool)
        pool.stop(drain=True)
        pool.start()  # a stopped pool is restartable, like the thread pool
        try:
            traces = self._run_one_shard(pool)
            assert len(traces) == 2
        finally:
            pool.stop(drain=True)


#: Shared memory, so forked workers see the test flip them (see
#: ``tests/test_cohort_executor.py`` for why not an ``Event``).
HOLD = multiprocessing.RawValue("b", 0)
HELD = multiprocessing.RawValue("b", 0)
HELD_OBSERVATION = {"obs": np.array(9.0)}


def held_program():
    """A trace observed above 5 parks while ``HOLD`` is set: the shard a test kills."""
    import repro.ppl as ppl
    from repro.distributions import Normal, Uniform

    a = ppl.sample(Uniform(-1.0, 1.0), name="a", address="held_a")
    if float(ppl.observe(Normal(a, 0.5), name="obs")) > 5.0:
        HELD.value = 1
        while HOLD.value:
            time.sleep(0.005)
    return a


def steady_traffic(pool, rng, stop, answered):
    """One small shard at a time, the next 20 ms after the last was answered."""
    while not stop.is_set():
        done = threading.Event()
        pool.submit(
            TraceJob.for_request(0, SLOW_OBSERVATION, None, 1, request_key(rng)), lambda *_: done.set()
        )
        if done.wait(5.0):
            answered.append(len(answered))
        time.sleep(0.02)


class TestDeathIsEndOfFile:
    def test_crashed_shard_resolves_under_steady_traffic(self):
        # Worker 0 dies mid-shard while worker 1 answers a shard every 20 ms:
        # a death seen only after a quiet spell on the result channel is never
        # seen, and the orphaned shard's request hangs.
        pool = ProcessCohortPool(
            FunctionModel(held_program, name="held"), None, num_workers=2
        ).start()
        HOLD.value, HELD.value = 1, 0
        stop, answered, orphan = threading.Event(), [], {}
        resolved = threading.Event()

        def on_orphan(_entries, traces, error):
            orphan.update(traces=traces, error=error)
            resolved.set()

        traffic = threading.Thread(
            target=steady_traffic, args=(pool, RandomState(100), stop, answered), daemon=True
        )
        try:
            pool.submit(
                TraceJob.for_request(0, HELD_OBSERVATION, None, 1, request_key(RandomState(1))), on_orphan
            )
            assert wait_for(HELD, timeout=10.0), "worker 0 never started the shard"
            traffic.start()
            deadline = time.monotonic() + 10.0
            while len(answered) < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(answered) >= 3, "traffic is not flowing"
            os.kill(pool._workers[0].pipe.process.pid, signal.SIGKILL)
            assert resolved.wait(10.0), "the crashed worker's shard never resolved"
            assert not stop.is_set() and traffic.is_alive()  # resolved under traffic
            stats = pool.stats()
            assert stats["worker_crashes"] == 1
            assert isinstance(orphan["error"], WorkerCrashed)
            assert stats["failed_shards"] == 1
        finally:
            stop.set()
            HOLD.value = 0
            if traffic.is_alive():
                traffic.join(timeout=10.0)
            pool.stop(drain=False)

    def test_idle_worker_killed_is_replaced_without_a_dispatch(self):
        with ProcessCohortPool(FunctionModel(gen1_program, name="gen"), None, num_workers=2) as pool:
            victim = pool._workers[0]
            os.kill(victim.pipe.process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while pool._workers[0] is victim and time.monotonic() < deadline:
                time.sleep(0.01)
            replacement = pool._workers[0]
            assert replacement is not victim and replacement.pipe.process.is_alive()
            stats = pool.stats()
            assert (stats["worker_crashes"], stats["failed_shards"], stats["shards_executed"]) == (1, 0, 0)

    def test_refresh_then_stop_is_not_a_crash(self):
        pool = ProcessCohortPool(FunctionModel(gen1_program, name="gen"), None, num_workers=2).start()
        first = [worker.pipe.process for worker in pool._workers]
        pool.refresh(model=FunctionModel(gen2_program, name="gen"))
        second = [worker.pipe.process for worker in pool._workers]
        pool.stop()
        assert pool.stats()["worker_crashes"] == 0
        # Dismissed, not killed: every worker of both generations left by itself.
        for process in first + second:
            process.join(timeout=5.0)
            assert process.exitcode == 0


class TestForkFromABusyParent:
    def test_worker_forked_while_a_thread_holds_the_fault_plan_lock_answers(self):
        # A forked worker inherits the active plan, whose lock another thread
        # of the parent may hold at the fork; in the child no thread is left
        # to release it, and every fault point of the worker would wait.
        plan = FaultPlan([], seed=0)
        held, release = threading.Event(), threading.Event()

        def hold_the_plan_lock():
            with plan._lock:
                held.set()
                release.wait(10.0)

        holder = threading.Thread(target=hold_the_plan_lock)
        answered, outcome = threading.Event(), {}

        def on_done(_entries, traces, error):
            outcome["traces"], outcome["error"] = traces, error
            answered.set()

        with activate(plan):
            holder.start()
            assert held.wait(10.0)
            pool = ProcessCohortPool(FunctionModel(lockstep_program, name="lockstep"), None, num_workers=1).start()
            release.set()
            holder.join()
            try:
                pool.submit(TraceJob.for_request(0, OBSERVATION, None, 4, request_key(RandomState(3))), on_done)
                # A bound, not a timing: a worker stuck on the inherited lock never replies.
                assert answered.wait(10.0), "the worker never answered its shard"
            finally:
                pool.stop(drain=False)
        assert outcome["error"] is None and len(outcome["traces"]) == 4

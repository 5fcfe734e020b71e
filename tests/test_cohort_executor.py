"""The one cohort-executor contract, checked on every executor.

A shard of :class:`TraceJob` runs through ``execute_trace_jobs`` in one of
three places — inline, a :class:`CohortWorkerPool` thread, a
:class:`ProcessCohortPool` worker process.  The contract
(:mod:`repro.serving.workers`): same seeded shards ⇒ same traces and the same
summed engine counters (bar ``num_slot_threads_started``, which says how warm
the executing process's slot pool was); one error per failed shard; ``stop(drain=False)``
resolves what is queued with ``PoolStopped``; ``submit`` on a pool that is not
running raises ``PoolStopped``; ``refresh`` follows a retraining.
"""

import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro import ppl
from repro.common.rng import RandomState
from repro.distributions import Normal, Uniform
from repro.ppl import FunctionModel
from repro.ppl.inference.batched import (
    TraceJob,
    execute_trace_jobs,
    merge_engine_stats,
    new_engine_stats,
    request_key,
    resolve_observation_array,
)
from repro.ppl.inference.plans import PlanCache
from repro.serving import CohortWorkerPool, PoolStopped, ProcessCohortPool
from tests.test_batched_inference import OBSERVATION, lockstep_engine, lockstep_program  # noqa: F401
from tests.test_slot_pool import work_counters

POOLS = [CohortWorkerPool, ProcessCohortPool]
EXECUTORS = ["inline"] + POOLS

#: Flags in shared memory: forked workers see them (a ``threading.Event``
#: would be copied) and, unlike a ``multiprocessing.Event``, they hold no lock
#: that terminating a waiting worker could leave taken.
ENTERED = multiprocessing.RawValue("b", 0)
GATE = multiprocessing.RawValue("b", 0)

GATED_OBSERVATION = {"obs": np.array(0.3)}


def wait_for(flag, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not flag.value and time.monotonic() < deadline:
        time.sleep(0.005)
    return bool(flag.value)


def gated_program():
    """Announces itself, then blocks until the test opens the gate."""
    ENTERED.value = 1
    wait_for(GATE)
    a = ppl.sample(Uniform(-1.0, 1.0), name="a", address="gated_a")
    ppl.observe(Normal(a, 0.5), name="obs")
    return a


def raising_program():
    raise RuntimeError("simulator exploded")


@pytest.fixture
def gate():
    ENTERED.value = GATE.value = 0
    yield GATE
    GATE.value = 1  # never leave a worker parked on the gate


def simple_shards(num_shards, shard_size=1, seed=3):
    key = request_key(RandomState(seed))
    jobs = TraceJob.for_request(0, GATED_OBSERVATION, None, num_shards * shard_size, key)
    return [jobs[start : start + shard_size] for start in range(0, len(jobs), shard_size)]


class ShardLog:
    """Callback sink: what each shard resolved with, and how many times."""

    def __init__(self, num_shards):
        self.outcomes = [[] for _ in range(num_shards)]
        self.stats = new_engine_stats()
        self._lock = threading.Lock()
        self._resolved = threading.Semaphore(0)

    def on_stats(self, shard_stats, _elapsed):
        with self._lock:
            merge_engine_stats(self.stats, shard_stats)

    def callback(self, index):
        def on_done(_entries, traces, error):
            with self._lock:
                self.outcomes[index].append((traces, error))
            self._resolved.release()

        return on_done

    def wait(self, count, timeout=60):
        for _ in range(count):
            assert self._resolved.acquire(timeout=timeout), "a shard never resolved"

    def traces(self, index):
        ((traces, error),) = self.outcomes[index]  # resolved exactly once
        assert error is None
        return traces

    def error(self, index):
        ((traces, error),) = self.outcomes[index]
        assert traces is None
        return error


def run_shards(executor, model, network, shards, use_plans=False):
    """Run ``shards`` on ``executor`` (one worker, so shard order is fixed)."""
    log = ShardLog(len(shards))
    if executor == "inline":
        plan_cache = PlanCache() if use_plans else None
        for index, shard in enumerate(shards):
            try:
                traces, stats = execute_trace_jobs(model, shard, network, plan_cache=plan_cache)
            except RuntimeError as error:
                log.outcomes[index].append((None, error))
            else:
                log.on_stats(stats, 0.0)
                log.outcomes[index].append((traces, None))
        return log
    with executor(model, network, num_workers=1, use_plans=use_plans, on_stats=log.on_stats) as pool:
        for index, shard in enumerate(shards):
            pool.submit(shard, log.callback(index))
        log.wait(len(shards))
    return log


class TestSameShardsSameResults:
    def test_traces_and_summed_counters_identical_on_every_executor(self, lockstep_engine):
        model, engine = lockstep_engine
        network = engine.network
        array = resolve_observation_array(network, OBSERVATION, "obs")

        def seeded_shards():
            jobs = TraceJob.for_request(0, OBSERVATION, array, 48, request_key(RandomState(23)))
            return [jobs[start : start + 8] for start in range(0, 48, 8)]

        logs = {
            executor: run_shards(executor, model, network, seeded_shards(), use_plans=True)
            for executor in EXECUTORS
        }
        reference = logs["inline"]
        assert reference.stats["num_cohorts"] == 6
        assert reference.stats["plan_hits"] > 0  # the planned path really ran
        for pool in POOLS:
            assert work_counters(logs[pool].stats) == work_counters(reference.stats)
            for index in range(6):
                for ours, theirs in zip(logs[pool].traces(index), reference.traces(index)):
                    assert ours.addresses == theirs.addresses
                    assert [s.value for s in ours.samples] == [s.value for s in theirs.samples]
                    assert ours.log_q == theirs.log_q


class TestFailures:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_raising_model_delivers_one_error_per_shard(self, executor):
        model = FunctionModel(raising_program, name="broken")
        log = run_shards(executor, model, None, simple_shards(3, shard_size=2))
        for index in range(3):
            error = log.error(index)
            assert isinstance(error, RuntimeError) and "simulator exploded" in str(error)
        assert log.stats == new_engine_stats()  # a failed shard reports no counters

    @pytest.mark.parametrize("pool_class", POOLS)
    def test_submit_on_a_pool_that_is_not_running_raises(self, pool_class):
        model = FunctionModel(gated_program, name="gated")
        pool = pool_class(model, None, num_workers=1)
        fired = []
        (shard,) = simple_shards(1)
        with pytest.raises(PoolStopped):  # never started
            pool.submit(shard, lambda *outcome: fired.append(outcome))
        pool.start()
        pool.stop()
        with pytest.raises(PoolStopped):  # stopped
            pool.submit(shard, lambda *outcome: fired.append(outcome))
        assert fired == []


class TestShutdown:
    @pytest.mark.parametrize("pool_class", POOLS)
    def test_stop_without_drain_resolves_every_queued_shard(self, pool_class, gate):
        model = FunctionModel(gated_program, name="gated")
        log = ShardLog(2)
        pool = pool_class(model, None, num_workers=1).start()
        try:
            # One shard parks the only worker on the gate, the other queues.
            for index, shard in enumerate(simple_shards(2)):
                pool.submit(shard, log.callback(index))
            assert wait_for(ENTERED)
            pool.stop(drain=False, timeout=0.2)
            assert isinstance(log.error(1), PoolStopped)
        finally:
            gate.value = 1
            pool.stop(drain=False)
        # The shard that was running resolved too: finished (threads) or
        # cancelled with its terminated worker (processes) — exactly once.
        log.wait(2)
        ((traces, error),) = log.outcomes[0]
        assert (traces is None) != (error is None)
        assert error is None or isinstance(error, PoolStopped)


class TestRefresh:
    def _one_shard(self, pool, network, seed):
        array = resolve_observation_array(network, OBSERVATION, "obs")
        log = ShardLog(1)
        jobs = TraceJob.for_request(0, OBSERVATION, array, 8, request_key(RandomState(seed)))
        pool.submit(jobs, log.callback(0))
        log.wait(1)
        return log.traces(0)

    @pytest.mark.parametrize("pool_class", POOLS)
    def test_refresh_follows_a_retraining(self, lockstep_engine, pool_class):
        model, engine = lockstep_engine
        network = engine.network
        with pool_class(model, network, num_workers=1, use_plans=True) as pool:
            for seed in (1, 2):
                self._one_shard(pool, network, seed)
            if pool_class is CohortWorkerPool:
                assert pool.plan_cache.stats()["plans"] >= 1
            else:
                generation = {worker.process.pid for worker in pool._workers}
            network.notify_updated()
            pool.refresh(model, network)
            if pool_class is CohortWorkerPool:
                stats = pool.plan_cache.stats()
                assert stats["plans"] == 0 and stats["invalidations"] >= 1
            else:
                assert generation.isdisjoint(worker.process.pid for worker in pool._workers)
            assert len(self._one_shard(pool, network, 3)) == 8


class TestPoolWidth:
    def test_num_workers_sets_the_thread_pool_width(self, monkeypatch):
        # Three shards that must be inside execute_trace_jobs at the same time
        # to pass the barrier: only a pool of three threads gets them there.
        from repro.serving import workers

        barrier = threading.Barrier(3, timeout=30)
        threads = set()

        def rendezvous(*args, **kwargs):
            threads.add(threading.current_thread().name)
            barrier.wait()
            return execute_trace_jobs(*args, **kwargs)

        monkeypatch.setattr(workers, "execute_trace_jobs", rendezvous)
        model = FunctionModel(lockstep_program, name="lockstep")
        jobs = TraceJob.for_request(0, OBSERVATION, None, 12, request_key(RandomState(5)))
        shards = [jobs[start : start + 4] for start in range(0, 12, 4)]
        log = ShardLog(len(shards))
        with CohortWorkerPool(model, None, num_workers=3) as pool:
            for index, shard in enumerate(shards):
                pool.submit(shard, log.callback(index))
            log.wait(len(shards))
        assert sum(len(log.traces(index)) for index in range(len(shards))) == 12
        assert len(threads) == 3

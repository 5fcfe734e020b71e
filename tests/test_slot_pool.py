"""The process's pool of parked slot threads that lockstep cohorts borrow.

A cohort takes B idle slot threads (starting threads only for the
shortfall), lends each one ``_worker`` call, and parks them again when the
cohort ends.  Each case checks one property the pool must keep for that to be
invisible: reuse, nothing of a finished cohort kept alive, retirement of a
wedged slot (``tests/test_lockstep_handoff.py::TestWedgedCohort``), a fresh
pool after ``fork``, no slot shared by concurrent cohorts, clean thread-local
state, and no stranded slot when a thread fails to start.
"""

import gc
import multiprocessing
import sys
import threading
import weakref

import numpy as np
import pytest

from repro import ppl
from repro.common.rng import RandomState
from repro.distributions import Normal, Uniform
from repro.ppl import FunctionModel
from repro.ppl import state as ppl_state
from repro.ppl.inference import batched as engine_module
from repro.ppl.inference.batched import TraceJob, new_engine_stats, request_key, run_mixed_cohort
from repro.serving import PosteriorService
from tests.conftest import built_streams
from tests.test_batched_inference import (  # noqa: F401 - fixture
    OBSERVATION,
    lockstep_engine,
    lockstep_program,
)

ARRAY = np.asarray(OBSERVATION["obs"], dtype=float)


@pytest.fixture
def lent_slots(monkeypatch):
    """Every list of slot threads a lockstep cohort borrows, in borrow order."""
    borrowed = []
    borrow = engine_module._borrow_slots

    def recording_borrow(count):
        slots, started = borrow(count)
        borrowed.append(slots)
        return slots, started

    monkeypatch.setattr(engine_module, "_borrow_slots", recording_borrow)
    return borrowed


def busy_slots(slots):
    """The slots still lent out: neither parked idle on a live thread nor retired."""
    idle = {id(slot) for slot in engine_module._idle_slots}
    return [
        slot
        for slot in slots
        if not slot.retired and not (id(slot) in idle and slot.thread.is_alive())
    ]


def work_counters(stats):
    """An engine counter block without ``num_slot_threads_started``: how many
    slot threads a shard had to start says how warm the executing process's
    pool was, not what the shard did, so it differs between executors."""
    return {key: value for key, value in stats.items() if key != "num_slot_threads_started"}


def jobs_for(seed, size):
    return TraceJob.for_request(0, OBSERVATION, ARRAY, size, request_key(RandomState(seed)))


def fingerprint(traces, jobs, streams):
    """What a seeded cohort must reproduce bit for bit: addresses, values,
    densities and each job's post-run generator state."""
    return [
        (
            trace.addresses,
            [float(sample.value) for sample in trace.samples],
            float(trace.log_q),
            float(trace.log_joint),
            streams[job.key].generator.bit_generator.state,
        )
        for trace, job in zip(traces, jobs)
    ]


def run_fingerprint(model, network, seed, size):
    return cohort_fingerprint(model, network, jobs_for(seed, size), new_engine_stats())


def cohort_fingerprint(model, network, jobs, stats):
    with built_streams() as streams:
        traces = run_mixed_cohort(model, jobs, network, stats)
    return fingerprint(traces, jobs, streams)


def ident_program(idents):
    """``lockstep_program``, noting which thread ran each execution."""

    def program():
        idents.append(threading.get_ident())
        return lockstep_program()

    return program


class TestReuse:
    def test_a_second_cohort_runs_on_the_first_cohorts_threads(self, lockstep_engine):
        _, engine = lockstep_engine
        first, second = [], []
        stats = new_engine_stats()
        run_mixed_cohort(
            FunctionModel(ident_program(first)), jobs_for(1, 12), engine.network, new_engine_stats()
        )
        run_mixed_cohort(FunctionModel(ident_program(second)), jobs_for(2, 12), engine.network, stats)
        assert len(set(first)) == len(set(second)) == 12
        assert set(second) <= set(first)
        assert stats["num_slot_threads_started"] == 0


class _SessionWatch:
    """The trained network, noting a weak reference to every session it builds."""

    def __init__(self, network):
        self._network = network
        self.sessions = []

    def __getattr__(self, name):
        return getattr(self._network, name)

    def batched_session(self, observations, rngs):
        session = self._network.batched_session(observations, rngs)
        self.sessions.append(weakref.ref(session))
        return session


class TestNothingKeptAlive:
    def test_a_parked_slot_holds_no_trace_session_or_job(self, lockstep_engine, lent_slots):
        model, engine = lockstep_engine
        network, jobs = _SessionWatch(engine.network), jobs_for(3, 10)
        with built_streams() as streams:
            traces = run_mixed_cohort(model, jobs, network, new_engine_stats())
        held = [weakref.ref(traces[0]), weakref.ref(traces[-1]), weakref.ref(streams[jobs[0].key])]
        held += network.sessions
        assert len(network.sessions) == 1 and busy_slots(lent_slots[0]) == []
        del traces, jobs, streams
        gc.collect()
        assert [ref() for ref in held] == [None] * len(held)


@pytest.fixture
def eager_thread_switches():
    """Hand the GIL over far more often than the default 5 ms: more interleavings per run."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class TestConcurrentCohorts:
    def test_cohorts_at_once_share_no_slot_and_match_their_runs_alone(
        self, lockstep_engine, lent_slots, eager_thread_switches
    ):
        model, engine = lockstep_engine
        size, seeds = 6, (4, 5, 6)
        # Every execution of every cohort meets here before its first draw, so
        # the cohorts are provably in flight at once on len(seeds) x size threads.
        meeting = threading.Barrier(len(seeds) * size, timeout=30)

        def meeting_program():
            meeting.wait()
            return lockstep_program()

        def cohort(seed, jobs):
            try:
                together[seed] = cohort_fingerprint(
                    FunctionModel(meeting_program), engine.network, jobs, new_engine_stats()
                )
            except BaseException as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        alone = {seed: run_fingerprint(model, engine.network, seed, size) for seed in seeds}
        for round_index in range(5):
            together, errors, borrowed_before = {}, [], len(lent_slots)
            runners = [
                threading.Thread(target=cohort, args=(seed, jobs_for(seed, size)))
                for seed in seeds
            ]
            for runner in runners:
                runner.start()
            for runner in runners:
                runner.join(60)
            assert not [runner for runner in runners if runner.is_alive()]
            assert errors == [] and together == alone, f"round {round_index}"
            taken = lent_slots[borrowed_before:]
            assert sorted(map(len, taken)) == [size] * len(seeds)
            slot_ids = [id(slot) for slots in taken for slot in slots]
            assert len(set(slot_ids)) == len(slot_ids), "two cohorts shared a slot"
            assert busy_slots([slot for slots in taken for slot in slots]) == []


def raising_program():
    """``lockstep_program``, except that a slot observing ``flag > 0`` raises
    after its first draw, with its execution state pushed."""
    if float(ppl.observe(Normal(0.0, 1.0), name="flag")) > 0.0:
        ppl.sample(Uniform(-2.0, 2.0), name="a", address="addr_a")
        raise RuntimeError("slot raised mid-execution")
    return lockstep_program()


class TestCleanThreadState:
    def test_every_parked_slot_has_an_empty_execution_stack(self, lockstep_engine, lent_slots):
        _, engine = lockstep_engine
        jobs = [
            job._replace(observation={**OBSERVATION, "flag": 1.0 if slot in (3, 7) else 0.0})
            for slot, job in enumerate(jobs_for(6, 10))
        ]
        with pytest.raises(RuntimeError, match="slot raised mid-execution"):
            run_mixed_cohort(FunctionModel(raising_program), jobs, engine.network, new_engine_stats())
        assert busy_slots(lent_slots[0]) == []
        # Lend every parked slot of the process a probe of its thread-local state.
        slots, started = engine_module._borrow_slots(len(engine_module._idle_slots))
        assert started == 0 and {id(s) for s in lent_slots[0]} <= {id(s) for s in slots}
        depths = [None] * len(slots)
        for index, slot in enumerate(slots):
            assert slot._task is None
            slot.lend(lambda index=index: depths.__setitem__(index, len(ppl_state._stack())))
        engine_module._return_slots(slots)
        assert depths == [0] * len(slots)
        assert busy_slots(slots) == []


def _child_cohorts(network, first_jobs, second_jobs, connection):
    model = FunctionModel(lockstep_program, name="lockstep")
    cold, warm = new_engine_stats(), new_engine_stats()
    first = cohort_fingerprint(model, network, first_jobs, cold)
    second = cohort_fingerprint(model, network, second_jobs, warm)
    connection.send((first, second, cold["num_slot_threads_started"], warm["num_slot_threads_started"]))
    connection.close()


class TestFork:
    def test_a_forked_child_starts_an_empty_pool_and_runs_bit_identical_cohorts(
        self, lockstep_engine
    ):
        model, engine = lockstep_engine
        expected = [run_fingerprint(model, engine.network, seed, 12) for seed in (7, 8)]
        assert len(engine_module._idle_slots) >= 12  # the parent forks with slots parked
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(
            target=_child_cohorts,
            args=(engine.network, jobs_for(7, 12), jobs_for(8, 12), sender),
            daemon=True,
        )
        child.start()
        sender.close()
        try:
            assert receiver.poll(60), "the forked child's cohorts did not finish in time"
            first, second, cold, warm = receiver.recv()
        finally:
            child.join(10)
            if child.is_alive():
                child.kill()
        assert child.exitcode == 0
        assert [first, second] == expected
        # None of the parent's parked slots crossed the fork: the child's first
        # cohort started all 12 threads, its second none.
        assert (cold, warm) == (12, 0)


class TestFailedThreadStart:
    def test_a_thread_that_fails_to_start_strands_no_slot(self, lockstep_engine, monkeypatch):
        _, engine = lockstep_engine
        expected = run_fingerprint(FunctionModel(lockstep_program), engine.network, 9, 8)
        idle_before = len(engine_module._idle_slots)
        start, starts = threading.Thread.start, []

        def failing_start(thread):
            starts.append(thread)
            if len(starts) == 4:
                raise RuntimeError("can't start new thread")
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", failing_start)
        model = FunctionModel(lockstep_program)
        model_alive = weakref.ref(model)
        # More jobs than parked slots: the cohort must start 8 threads, and the
        # 4th start fails.
        with pytest.raises(RuntimeError, match="can't start new thread"):
            run_mixed_cohort(model, jobs_for(9, idle_before + 8), engine.network, new_engine_stats())
        monkeypatch.undo()
        assert len(starts) == 4
        # Nothing was lent: the taken slots and the three started ones are all
        # parked, and no slot thread keeps the failed cohort's model alive.
        assert len(engine_module._idle_slots) == idle_before + 3
        assert all(slot._task is None for slot in engine_module._idle_slots)
        del model
        gc.collect()
        assert model_alive() is None
        assert run_fingerprint(FunctionModel(lockstep_program), engine.network, 9, 8) == expected


class TestStartCounter:
    def test_service_stats_count_b_starts_on_a_cold_pool_and_none_on_a_warm_one(
        self, lockstep_engine
    ):
        model, engine = lockstep_engine
        # A process worker is forked with an empty pool: its first cohort is cold.
        with PosteriorService(
            model, engine.network, observe_key="obs", backend="process", num_workers=1, max_batch=8
        ) as service:
            service.posterior(OBSERVATION, num_traces=8, seed=1, use_cache=False, timeout=120)
            cold = service.stats()["engine"]["num_slot_threads_started"]
            service.posterior(OBSERVATION, num_traces=8, seed=2, use_cache=False, timeout=120)
            warm = service.stats()["engine"]["num_slot_threads_started"] - cold
        assert (cold, warm) == (8, 0)

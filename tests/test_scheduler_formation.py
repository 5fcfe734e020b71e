"""Cohort formation: a cohort is built when an executor can start it.

The rule (:mod:`repro.serving.scheduler`): the flush thread waits for a free
executor *before* it sizes a cohort, so jobs that arrive while every executor
is busy coalesce; with an executor idle, ``max_batch`` / ``max_latency``
decide as they always did, the latency budget running from the later of "the
oldest job arrived" and "an executor came free".

Nothing here asserts a wall-clock duration.  The scheduler tests drive a fake
clock and a fake executor; the service tests hold the real executor on the
gated model of ``tests/test_cohort_executor.py``.  Waiting for the flush
thread is an event with a generous timeout, and "nothing happened" is checked
in states where nothing *can* happen however long one waits (no executor, or
a clock that stands still).
"""

import threading
import time

import pytest

from repro.ppl import FunctionModel
from repro.ppl.inference.batched import TraceJob
from repro.serving import DeadlineExceeded, PosteriorService
from repro.serving.request import PosteriorRequest
from repro.serving.scheduler import CohortEntry, MicroBatchScheduler
from repro.serving.workers import ExecutorSlots
from tests.test_batched_inference import OBSERVATION, lockstep_engine, lockstep_program  # noqa: F401
from tests.test_cohort_executor import (  # noqa: F401 - gate is a fixture
    ENTERED,
    GATED_OBSERVATION,
    gate,
    gated_program,
    wait_for,
)

MAX_LATENCY = 0.005
PATIENCE = 30.0  # seconds an expected event may take on a stalled host


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class FakeExecutors(ExecutorSlots):
    """One executor that is free when the test says so; a dispatch claims it."""

    def __init__(self, free):
        super().__init__(executors=1, capacity=1)
        self.open()
        if not free:
            self.claim()
        self.awaited = threading.Event()  # the flush thread is blocked waiting for one

    def wait(self, timeout=None):
        if timeout:
            self.awaited.set()
        return super().wait(timeout)


class Harness:
    """One scheduler on a fake clock, a fake executor and a recording dispatch."""

    def __init__(self, free=1, max_batch=8):
        self.clock = FakeClock()
        self.executors = FakeExecutors(free)
        self.cohorts = []
        self.shed = []
        self._dispatched = threading.Semaphore(0)
        self._request_ids = iter(range(10**6))
        self.scheduler = MicroBatchScheduler(
            self._dispatch,
            max_batch=max_batch,
            max_latency=MAX_LATENCY,
            on_shed=self.shed.append,
            clock=self.clock,
            wait_for_executor=self.executors.wait,
        )
        self.scheduler.start()

    def _dispatch(self, entries):
        assert self.executors.claim()
        self.cohorts.append(entries)
        self._dispatched.release()

    def submit(self, num_jobs, deadline=None):
        request = PosteriorRequest(
            next(self._request_ids), {}, num_jobs, deadline=deadline, clock=self.clock
        )
        job = TraceJob(request.request_id, {}, None, None)
        self.scheduler.submit([CohortEntry(job, request, i) for i in range(num_jobs)])
        return request

    def await_cohort(self, passing_time=True):
        """Block until the next dispatch; meanwhile the fake clock runs (or stands still)."""
        give_up = time.monotonic() + PATIENCE
        while not self._dispatched.acquire(timeout=0.002):
            assert time.monotonic() < give_up, "the flush thread never dispatched"
            if passing_time:
                self.clock.now += MAX_LATENCY
        return self.cohorts[-1]

    def close(self):
        self.scheduler.stop(drain=False, timeout=PATIENCE)


@pytest.fixture
def harness():
    made = []

    def make(**kwargs):
        made.append(Harness(**kwargs))
        return made[-1]

    yield make
    for each in made:
        each.close()


class TestFormationRule:
    def test_jobs_arriving_while_every_executor_is_busy_leave_as_one_cohort(self, harness):
        h = harness(free=0, max_batch=64)
        for _ in range(3):
            h.submit(4)
            h.clock.now += 10 * MAX_LATENCY  # every latency budget long spent
        assert h.executors.awaited.wait(PATIENCE)
        h.clock.now += 1.0
        assert h.cohorts == []  # no executor, no cohort: nothing was sized by the timer
        h.executors.give_back()
        cohort = h.await_cohort()
        assert len(cohort) == 12
        assert len({entry.request.request_id for entry in cohort}) == 3
        stats = h.scheduler.stats()
        assert (stats["num_flushes"], stats["num_executor_flushes"]) == (1, 1)
        assert stats["num_full_flushes"] == stats["num_latency_flushes"] == 0
        assert stats["executor_wait_s"] > 0.99  # the flush thread waited while the clock ran
        assert stats["pending_jobs"] == 0

    def test_lone_request_with_an_idle_executor_flushes_after_max_latency(self, harness):
        h = harness(free=1)
        h.submit(4)
        time.sleep(0.05)
        assert h.cohorts == []  # the clock stands still: the budget is not spent
        h.clock.now += MAX_LATENCY
        assert len(h.await_cohort(passing_time=False)) == 4
        stats = h.scheduler.stats()
        assert (stats["num_flushes"], stats["num_latency_flushes"]) == (1, 1)
        assert stats["executor_wait_s"] == 0.0

    def test_full_max_batch_flushes_at_once(self, harness):
        h = harness(free=1, max_batch=8)
        h.submit(5)
        h.submit(5)
        # The clock never moves: only the size can have triggered this build.
        assert len(h.await_cohort(passing_time=False)) == 8
        stats = h.scheduler.stats()
        assert (stats["num_flushes"], stats["num_full_flushes"]) == (1, 1)
        assert stats["pending_jobs"] == 2

    def test_budget_restarts_when_the_executor_comes_free(self, harness):
        # The job beat the executor's release; its budget must not already be
        # spent at that moment, or it would leave alone an instant before the
        # traffic that the same completed cohort is about to send.
        h = harness(free=0)
        h.submit(3)
        assert h.executors.awaited.wait(PATIENCE)
        h.clock.now += 100 * MAX_LATENCY
        h.executors.give_back()
        time.sleep(0.05)
        assert h.cohorts == []  # frozen clock: the restarted budget has not run
        h.submit(2)
        assert len(h.await_cohort()) == 5

    def test_expired_request_is_shed_when_the_cohort_is_built(self, harness):
        h = harness(free=0)
        doomed = h.submit(4, deadline=0.5)
        alive = h.submit(4)
        assert h.executors.awaited.wait(PATIENCE)
        h.clock.now = 1.0  # the deadline passes while no executor is free
        assert h.shed == []  # nothing is shed before there is a cohort to build
        h.executors.give_back()
        cohort = h.await_cohort()
        assert {entry.request.request_id for entry in cohort} == {alive.request_id}
        assert h.shed == [doomed]
        assert h.scheduler.stats()["num_shed_requests"] == 1

    def test_stop_with_drain_empties_pending_while_waiting_on_an_executor(self, harness):
        h = harness(free=0, max_batch=8)
        for _ in range(5):
            h.submit(4)
        assert h.executors.awaited.wait(PATIENCE)
        stopper = threading.Thread(target=h.scheduler.stop, kwargs={"drain": True})
        stopper.start()
        for expected in (8, 8, 4):
            assert stopper.is_alive()  # still draining: it needs the next executor
            h.executors.give_back()
            assert len(h.await_cohort()) == expected
        stopper.join(PATIENCE)
        assert not stopper.is_alive()
        assert h.scheduler.pending_jobs == 0

    def test_stop_without_drain_does_not_wait_for_an_executor(self, harness):
        h = harness(free=0)
        h.submit(4)
        assert h.executors.awaited.wait(PATIENCE)
        h.scheduler.stop(drain=False, timeout=PATIENCE)
        assert not h.scheduler._thread.is_alive()
        assert h.cohorts == [] and h.scheduler.pending_jobs == 4


def hold_the_executor(service):
    """Park the service's only executor on the gate with a one-trace request."""
    parked = service.submit(GATED_OBSERVATION, num_traces=1, seed=0, use_cache=False)
    assert wait_for(ENTERED)
    return parked


@pytest.mark.parametrize("backend", ["thread", "process"])
class TestServedFormation:
    def test_requests_behind_a_busy_executor_share_one_cohort(self, backend, gate):
        model = FunctionModel(gated_program, name="gated")
        with PosteriorService(model, None, backend=backend, num_workers=1) as service:
            parked = hold_the_executor(service)
            futures = [
                service.submit(GATED_OBSERVATION, num_traces=4, seed=seed, use_cache=False)
                for seed in (1, 2, 3)
            ]
            time.sleep(10 * service.scheduler.max_latency)
            # Their latency budgets are spent and still nothing left the scheduler.
            assert service.scheduler.pending_jobs == 12
            assert service.stats()["cohorts_executed"] == 1
            gate.value = 1
            for future in [parked] + futures:
                future.result(timeout=60)
            # An executor is free again once its shard's callback has returned.
            assert service.workers.wait_for_executor(PATIENCE)
            assert service.workers.free_executors() == 1
            stats = service.stats()
        assert stats["cohorts_executed"] == 2
        assert stats["mean_cohort_size"] == (1 + 12) / 2
        assert stats["mixed_cohort_fraction"] == 0.5
        scheduler = stats["scheduler"]
        assert (scheduler["num_latency_flushes"], scheduler["num_executor_flushes"]) == (1, 1)
        assert scheduler["executor_wait_s"] > 0.0

    def test_deadline_passing_behind_a_busy_executor_sheds_at_build_time(self, backend, gate):
        model = FunctionModel(gated_program, name="gated")
        with PosteriorService(model, None, backend=backend, num_workers=1) as service:
            parked = hold_the_executor(service)
            doomed = service.submit(
                GATED_OBSERVATION, num_traces=4, seed=1, use_cache=False, deadline=0.05
            )
            alive = service.submit(GATED_OBSERVATION, num_traces=4, seed=2, use_cache=False)
            time.sleep(0.1)  # the deadline passes; no executor, so nobody looks yet
            assert not doomed.done()
            gate.value = 1
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=60)
            assert alive.result(timeout=60).num_traces == 4
            parked.result(timeout=60)
            stats = service.stats()
        assert stats["shed_deadline"] == 1
        assert stats["cohorts_executed"] == 2  # the shed request never reached a worker


class TestThreadBackendDefaults:
    def test_num_workers_resolves_per_backend(self):
        model = FunctionModel(gated_program, name="gated")
        assert PosteriorService(model, None).workers.num_workers == 1
        assert PosteriorService(model, None, backend="process").workers.num_workers == 2
        assert PosteriorService(model, None, num_workers=3).workers.num_workers == 3

    def test_two_closed_loop_clients_settle_at_two_requests_per_cohort(self, lockstep_engine):
        # Both clients are answered by one cohort and send their next requests
        # within moments of each other; whichever is first must wait for the
        # other rather than leave alone.  max_latency is raised far above any
        # host stall, so that "moments" never decides the outcome; everything
        # else is the default thread service.
        model, engine = lockstep_engine
        traces, rounds = 8, 12
        service = PosteriorService(
            model, engine.network, observe_key="obs", max_batch=2 * traces, max_latency=PATIENCE
        )
        errors = []

        def client(index):
            try:
                for sent in range(rounds):
                    service.posterior(
                        OBSERVATION, traces, seed=1000 * index + sent, use_cache=False, timeout=60
                    )
            except BaseException as error:  # noqa: BLE001 - reported by the test thread
                errors.append(error)

        with service:
            clients = [threading.Thread(target=client, args=(index,)) for index in range(2)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(120)
            stats = service.stats()
        assert errors == []
        assert stats["workers"]["num_workers"] == 1
        assert stats["cohorts_executed"] == rounds
        assert stats["mean_cohort_size"] == 2 * traces
        assert stats["mean_cohort_occupancy"] == 1.0
        assert stats["mixed_cohort_fraction"] == 1.0
        assert stats["scheduler"]["num_full_flushes"] == rounds

"""The lockstep baton under stress, and a cohort of wedged simulators.

``_LockstepCoordinator`` passes control between the driver and the cohort's
threads on bare locks, as a chain: the driver wakes the first answered slot,
each slot wakes the next when it posts, the last wakes the driver.  The
properties checked here are the ones a hand-off can lose: one slot runs at a
time, every wake-up arrives (the run finishes, on every path), no gate is
opened for nobody, nobody is left behind (every slot thread a cohort
borrowed is parked again or retired, none still lent out), a stall names the
slot holding the baton, and the traces are those of ``batch_size=1`` however
the rounds interleave.
"""

import functools
import sys
import threading
import time

import numpy as np
import pytest

from repro import ppl
from repro.common.rng import RandomState
from repro.distributions import Normal, Uniform
from repro.ppl import FunctionModel
from repro.ppl.inference import batched as engine_module
from repro.ppl.inference.batched import (
    LockstepStallError,
    _LockstepCoordinator,
    TraceJob,
    new_engine_stats,
    per_trace_keys,
    request_key,
    run_mixed_cohort,
)
from repro.ppl.inference.inference_compilation import InferenceCompilation
from repro.ppl.nn.embeddings import ObservationEmbeddingFC
from tests.test_batched_inference import OBSERVATION, lockstep_engine  # noqa: F401
from tests.test_slot_pool import busy_slots, eager_thread_switches, lent_slots  # noqa: F401 - fixtures

RAISE_AT_ONCE, RAISE_LATER = 60.0, 30.0


class Occupancy:
    """How many executions are inside a ``with occupancy:`` block, and the most ever."""

    def __init__(self):
        self._lock = threading.Lock()
        self.now = self.most = 0

    def __enter__(self):
        with self._lock:
            self.now += 1
            self.most = max(self.most, self.now)

    def __exit__(self, *exc_info):
        with self._lock:
            self.now -= 1


#: the executions of the model under test are counted here between draws
OCCUPANCY = Occupancy()


def spin():
    """Pure-Python work long enough to be preempted at a 0.1 ms switch interval."""
    total = 0
    for step in range(5_000):
        total += step
    return total


def ragged_program():
    """1-6 controlled draws, the count drawn by the trace itself; raises on request.

    The observed ``flag`` is the test's handle on one slot: a slot can be told
    to raise before its first draw or after its second.  Its stretches of
    work between draws are counted in ``OCCUPANCY``.
    """
    with OCCUPANCY:
        flag = float(ppl.observe(Normal(0.0, 1.0), name="flag"))
        if flag >= RAISE_AT_ONCE:
            raise RuntimeError(f"simulator exploded at once (flag {flag:.0f})")
    length = ppl.sample(Uniform(0.0, 1.0), name="length", address="length")
    total = 0.0
    for step in range(1 + int(5 * length)):
        total += ppl.sample(Normal(0.0, 1.0), name=f"x{step}", address=f"x{step}")
        with OCCUPANCY:
            spin()
            if step == 0 and flag >= RAISE_LATER:
                raise RuntimeError(f"simulator exploded later (flag {flag:.0f})")
    ppl.observe(Normal(total, 1.0), name="obs")
    return total


@pytest.fixture(scope="module")
def ragged_engine():
    model = FunctionModel(ragged_program, name="ragged")
    engine = InferenceCompilation(
        observation_embedding=ObservationEmbeddingFC(input_dim=1, embedding_dim=8),
        observe_key="obs",
        rng=RandomState(2),
    )
    engine.train(model, num_traces=200, minibatch_size=20, learning_rate=3e-3)
    return model, engine.network


class FlakyNetwork:
    """The trained network, except that its lockstep session fails in one round."""

    def __init__(self, network, fail_round):
        self._network = network
        self._fail_round = fail_round

    def __getattr__(self, name):
        return getattr(self._network, name)

    def batched_session(self, observations, rngs):
        session = self._network.batched_session(observations, rngs)
        answer, rounds = session.proposals, iter(range(10**6))

        def proposals(pending):
            if next(rounds) == self._fail_round:
                raise RuntimeError("proposal forward exploded")
            return answer(pending)

        session.proposals = proposals
        return session


def cohort_jobs(seed, size, flags):
    jobs = []
    for slot, key in enumerate(per_trace_keys(RandomState(seed), size)):
        observation = {"obs": np.array([0.1 * (seed % 7) - 0.3]), "flag": flags.get(slot, 0.0)}
        jobs.append(TraceJob(slot, observation, observation["obs"], key))
    return jobs


class TestHandOffStress:
    def test_200_cohorts_of_finishers_raisers_and_failing_forwards(
        self, ragged_engine, eager_thread_switches, lent_slots
    ):
        model, network = ragged_engine
        plan = np.random.default_rng(19)
        outcomes = {"ok": 0, "slot raised": 0, "forward raised": 0}
        for seed in range(200):
            borrowed_before = len(lent_slots)
            size = int(plan.integers(2, 13))
            kind = plan.choice(["ok", "ok", "slot raised", "forward raised"])
            flags, served = {}, network
            if kind == "slot raised":
                for slot in plan.choice(size, size=int(plan.integers(1, 3)), replace=False):
                    flags[int(slot)] = float(plan.choice([RAISE_AT_ONCE, RAISE_LATER]))
            elif kind == "forward raised":
                served = FlakyNetwork(network, fail_round=int(plan.integers(0, 2)))
            jobs = cohort_jobs(seed, size, flags)
            if kind == "ok":
                traces = run_mixed_cohort(model, jobs, served, new_engine_stats())
                # batch_size=1: the same jobs, each alone on the sequential session.
                for job, trace in zip(cohort_jobs(seed, size, flags), traces):
                    (alone,) = run_mixed_cohort(model, [job], network, new_engine_stats())
                    assert trace.addresses == alone.addresses
                    for ours, theirs in zip(trace.samples, alone.samples):
                        assert ours.value == pytest.approx(theirs.value, abs=1e-9)
            else:
                # A raising slot is reported as that slot's error; a failing
                # forward as the forward's (no slot raised on its own).
                with pytest.raises(RuntimeError, match="exploded"):
                    run_mixed_cohort(model, jobs, served, new_engine_stats())
            outcomes[kind] += 1
            # Every path takes its slots back before it returns or raises: the
            # cohort borrowed one slot thread per job, and each is parked
            # again (on a live thread) or retired — none is still lent out.
            (taken,) = lent_slots[borrowed_before:]
            assert len(taken) == size
            assert busy_slots(taken) == [], f"cohort {seed} ({kind}) left slots lent out"
        assert min(outcomes.values()) >= 20  # every path was really exercised


@pytest.fixture
def short_stall_budget(monkeypatch):
    """A coordinator that gives up on a silent round after 0.3 s, and a 0.5 s join."""
    monkeypatch.setattr(
        engine_module,
        "_LockstepCoordinator",
        functools.partial(
            engine_module._LockstepCoordinator, stall_timeout=0.3, poll_interval=0.05
        ),
    )
    monkeypatch.setattr(engine_module, "_JOIN_DEADLINE_S", 0.5)
    return 0.3 + 0.5


class TestWedgedCohort:
    def test_stall_error_of_a_fully_wedged_cohort_waits_one_join_deadline(
        self, lockstep_engine, short_stall_budget, lent_slots  # noqa: F811 - fixture
    ):
        lockstep_model, engine = lockstep_engine
        release = threading.Event()
        size = 12

        def wedged_program():
            ppl.sample(Uniform(-2.0, 2.0), name="a", address="addr_a")
            release.wait()  # a simulator that never comes back

        model = FunctionModel(wedged_program, name="wedged")
        array = np.asarray(OBSERVATION["obs"], dtype=float)
        jobs = TraceJob.for_request(0, OBSERVATION, array, size, request_key(RandomState(1)))
        started = time.monotonic()
        try:
            with pytest.raises(LockstepStallError) as raised:
                run_mixed_cohort(model, jobs, engine.network, new_engine_stats())
            elapsed = time.monotonic() - started
            (wedged,) = lent_slots
            # Slot 0 wedged with the baton; the poison path freed the others,
            # which wedged in turn.  The driver gave up on every one: retired,
            # never lent again — the next cohort runs on other threads while
            # they hang.
            assert all(slot.retired and slot.thread.is_alive() for slot in wedged)
            jobs = TraceJob.for_request(0, OBSERVATION, array, size, request_key(RandomState(2)))
            assert len(run_mixed_cohort(lockstep_model, jobs, engine.network, new_engine_stats())) == size
            _, after = lent_slots
            assert not {id(slot) for slot in wedged} & {id(slot) for slot in after}
            assert busy_slots(after) == []
        finally:
            release.set()
        # The slot holding the baton is named, not the slots queued behind it ...
        assert "waiting on slots {0: 'alive'}" in str(raised.value)
        assert "11 are queued behind it" in str(raised.value)
        # ... and the error arrives after the stall budget plus ONE join
        # deadline, not one per thread (12 x 0.5 s on top of the stall).
        assert elapsed < short_stall_budget + 3.0
        # Released, each retired slot's thread exits once its task returns.
        for slot in wedged:
            slot.thread.join(10)
        assert not [slot for slot in wedged if slot.thread.is_alive()]
        assert busy_slots(wedged) == []

    def test_a_wedged_slot_is_named_and_the_slots_behind_it_wait_their_turn(
        self, lockstep_engine, short_stall_budget, lent_slots, monkeypatch  # noqa: F811 - fixture
    ):
        _, engine = lockstep_engine
        release, size, culprit = threading.Event(), 8, 5
        returned = []  # (slot, draw) each time a draw returns to the program

        def program():
            slot = int(ppl.observe(Normal(0.0, 1.0), name="slot"))
            for draw, address in enumerate(("addr_a", "addr_b")):
                ppl.sample(Uniform(-2.0, 2.0), name=address, address=address)
                returned.append((slot, draw))
                if slot == culprit and draw == 0:
                    release.wait()  # wedges holding the baton, after its first answer

        at_stall = []
        await_round = _LockstepCoordinator._await_round

        def noting_await_round(self, *args):
            try:
                return await_round(self, *args)
            except LockstepStallError:
                at_stall.extend(returned)
                raise

        monkeypatch.setattr(_LockstepCoordinator, "_await_round", noting_await_round)
        array = np.asarray(OBSERVATION["obs"], dtype=float)
        jobs = [
            job._replace(observation={**OBSERVATION, "slot": float(slot)})
            for slot, job in enumerate(
                TraceJob.for_request(0, OBSERVATION, array, size, request_key(RandomState(3)))
            )
        ]
        try:
            with pytest.raises(LockstepStallError) as raised:
                run_mixed_cohort(FunctionModel(program), jobs, engine.network, new_engine_stats())
        finally:
            release.set()
        assert f"waiting on slots {{{culprit}: 'alive'}}" in str(raised.value)
        assert f"{size - 1 - culprit} are queued behind it" in str(raised.value)
        # When the driver gave up, the culprit and the slots before it had
        # taken their first answer and the slots behind it had not: they
        # were waiting their turn, not running.
        assert at_stall == [(slot, 0) for slot in range(culprit + 1)]
        (taken,) = lent_slots
        assert [slot.retired for slot in taken] == [index == culprit for index in range(size)]


@pytest.fixture
def one_at_a_time():
    """``OCCUPANCY`` reset for the test, with the GIL handed over every 0.1 ms."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    OCCUPANCY.now = OCCUPANCY.most = 0
    try:
        yield OCCUPANCY
    finally:
        sys.setswitchinterval(interval)


class TestOneSlotAtATime:
    def test_no_two_slots_run_between_their_answer_and_their_next_post(
        self, lockstep_engine, one_at_a_time
    ):
        _, engine = lockstep_engine

        def spinning_program():
            with one_at_a_time:
                spin()
            a = ppl.sample(Uniform(-2.0, 2.0), name="a", address="addr_a")
            with one_at_a_time:
                spin()
            b = ppl.sample(Normal(a, 1.0), name="b", address="addr_b")
            with one_at_a_time:
                spin()
            c = ppl.sample(Uniform(b - 1.0, b + 1.0), name="c", address="addr_c")
            with one_at_a_time:
                spin()
            ppl.observe(Normal(np.array([a, b, c, a + b + c]), 0.4), name="obs")
            return a

        array = np.asarray(OBSERVATION["obs"], dtype=float)
        for seed in range(4):
            jobs = TraceJob.for_request(0, OBSERVATION, array, 8, request_key(RandomState(seed)))
            traces = run_mixed_cohort(
                FunctionModel(spinning_program), jobs, engine.network, new_engine_stats()
            )
            assert len(traces) == 8 and one_at_a_time.now == 0
        assert one_at_a_time.most == 1


class CountingGate:
    """A gate (a lock created held) that counts how often it is opened and passed."""

    def __init__(self):
        self._gate = threading.Lock()
        self._gate.acquire()
        self._count_lock = threading.Lock()
        self.opens = self.passes = 0

    def acquire(self, blocking=True, timeout=-1):
        passed = self._gate.acquire(blocking, timeout)
        if passed:
            with self._count_lock:
                self.passes += 1
        return passed

    def release(self):
        self._gate.release()  # a second release of an open gate raises here
        with self._count_lock:
            self.opens += 1

    def locked(self):
        return self._gate.locked()


@pytest.fixture
def counting_gates(monkeypatch):
    """Every gate made from here on is a ``CountingGate``, on a slot pool of its own."""
    gates, pool = [], []

    def counting_gate():
        gates.append(CountingGate())
        return gates[-1]

    monkeypatch.setattr(engine_module, "_shut_gate", counting_gate)
    monkeypatch.setattr(engine_module, "_idle_slots", pool)
    yield gates
    for slot in pool:  # let the test's parked threads exit
        slot.retired = True
        slot.lend(lambda: None)
        slot.gate.release()


@pytest.fixture
def doomed(monkeypatch):
    """``doomed[0]``: the slot whose thread dies in ``finished``, without posting."""
    doomed = [None]
    finished = _LockstepCoordinator.finished

    def finish_or_die(self, slot):
        if slot == doomed[0]:
            raise SystemExit  # ends the slot's thread
        finished(self, slot)

    monkeypatch.setattr(_LockstepCoordinator, "finished", finish_or_die)
    return doomed


class NotingFlakyNetwork(FlakyNetwork):
    """``FlakyNetwork``, noting ``OCCUPANCY.most`` when its forward fails."""

    def __init__(self, network, fail_round, at_failure):
        super().__init__(network, fail_round)
        self._at_failure = at_failure

    def batched_session(self, observations, rngs):
        session = super().batched_session(observations, rngs)
        answer = session.proposals

        def proposals(pending):
            try:
                return answer(pending)
            except RuntimeError:
                self._at_failure.append(OCCUPANCY.most)
                raise

        session.proposals = proposals
        return session


class TestChainEndings:
    """Each way a slot's turn can end passes the baton on: the round ends with
    its own error or its traces, no gate is opened for nobody (or twice) and
    no two slots run at once — until a failed forward poisons the cohort,
    which frees every waiting slot together to run out on the prior."""

    @pytest.mark.parametrize("ending", ["finish", "raise", "failing forward", "dead thread"])
    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_every_ending_hands_the_baton_on(
        self, ragged_engine, ending, counting_gates, one_at_a_time, short_stall_budget,
        lent_slots, doomed,
    ):
        model, network = ragged_engine
        plan = np.random.default_rng(23)
        most = []
        for seed in range(12):
            size = int(plan.integers(2, 10))
            flags, served = {}, network
            if ending == "raise":
                for slot in plan.choice(size, size=int(plan.integers(1, 3)), replace=False):
                    flags[int(slot)] = float(plan.choice([RAISE_AT_ONCE, RAISE_LATER]))
            elif ending == "failing forward":
                served = NotingFlakyNetwork(network, int(plan.integers(0, 2)), most)
            elif ending == "dead thread":
                doomed[0] = int(plan.integers(0, size))
            jobs = cohort_jobs(seed, size, flags)
            one_at_a_time.most = 0
            if ending in ("raise", "failing forward"):
                with pytest.raises(RuntimeError, match="exploded"):
                    run_mixed_cohort(model, jobs, served, new_engine_stats())
            else:
                traces = run_mixed_cohort(model, jobs, served, new_engine_stats())
                for job, trace in zip(cohort_jobs(seed, size, flags), traces):
                    (alone,) = run_mixed_cohort(model, [job], network, new_engine_stats())
                    assert trace.addresses == alone.addresses
            if ending != "failing forward":
                most.append(one_at_a_time.most)
            if ending == "dead thread":
                dead = lent_slots[-1][doomed[0]]
                dead.thread.join(10)
                assert dead.retired and not dead.thread.is_alive()
            assert busy_slots(lent_slots[-1]) == []
            # Every gate opened was passed exactly once: none opened for a
            # slot that no longer waits, none opened twice.
            assert [(gate.opens - gate.passes) for gate in counting_gates] == [0] * len(counting_gates)
        assert counting_gates and most == [1] * 12

"""The lockstep baton under stress, and a cohort of wedged simulators.

``_LockstepCoordinator`` passes control between the driver and the cohort's
threads on bare locks.  The properties checked here are the ones a hand-off
can lose: every wake-up arrives (the run finishes, on every path), nobody is
left behind (every slot thread a cohort borrowed is parked again or retired,
none still lent out), and the traces are those of ``batch_size=1`` however the
rounds interleave.
"""

import functools
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


def ragged_program():
    """1-6 controlled draws, the count drawn by the trace itself; raises on request.

    The observed ``flag`` is the test's handle on one slot: a slot can be told
    to raise before its first draw or after its second.
    """
    flag = float(ppl.observe(Normal(0.0, 1.0), name="flag"))
    if flag >= RAISE_AT_ONCE:
        raise RuntimeError(f"simulator exploded at once (flag {flag:.0f})")
    length = ppl.sample(Uniform(0.0, 1.0), name="length", address="length")
    total = 0.0
    for step in range(1 + int(5 * length)):
        total += ppl.sample(Normal(0.0, 1.0), name=f"x{step}", address=f"x{step}")
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
            # The driver gave up on every wedged slot: retired, never lent
            # again — the next cohort runs on other threads while they hang.
            assert all(slot.retired and slot.thread.is_alive() for slot in wedged)
            jobs = TraceJob.for_request(0, OBSERVATION, array, size, request_key(RandomState(2)))
            assert len(run_mixed_cohort(lockstep_model, jobs, engine.network, new_engine_stats())) == size
            _, after = lent_slots
            assert not {id(slot) for slot in wedged} & {id(slot) for slot in after}
            assert busy_slots(after) == []
        finally:
            release.set()
        # Every wedged slot is named ...
        for slot in range(size):
            assert f"{slot}: 'alive'" in str(raised.value)
        # ... and the error arrives after the stall budget plus ONE join
        # deadline, not one per thread (12 x 0.5 s on top of the stall).
        assert elapsed < short_stall_budget + 3.0
        # Released, each retired slot's thread exits once its task returns.
        for slot in wedged:
            slot.thread.join(10)
        assert not [slot for slot in wedged if slot.thread.is_alive()]
        assert busy_slots(wedged) == []

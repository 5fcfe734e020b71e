"""Batched guided-execution importance sampling (the lockstep IC engine).

Amortized inference turns posterior sampling into an embarrassingly parallel
importance-sampling run, but stepping the inference network one trace at a
time pays one observation embedding, one LSTM step and one proposal forward
**per trace per address**.  This module batches all of that across a
*cohort* of B simultaneous executions:

1. the cohort's B model executions each run on a slot thread borrowed from
   the process's pool of parked threads (started only when too few are
   idle, returned when the cohort ends) and suspend at every controlled
   draw;
2. a coordinator collects the suspended draws of one lockstep round, groups
   them by address, and answers each group with **one** batched step of the
   :class:`repro.ppl.nn.inference_network.BatchedProposalSession`, which also
   draws and scores the group's values in one vectorised pass — on each
   execution's own deterministic random stream, which is safe to touch
   because that execution is suspended until the round is answered;
3. each execution resumes with its value and proposal log-density in hand and
   runs until its next draw (or finishes).

Divergence-fallback semantics: traces that request *different* addresses in
the same round are stepped as separate per-address sub-batches (a sub-batch
of size 1 is plain per-trace stepping), and traces that finish early simply
drop out of the cohort — so arbitrarily branching models are supported, with
lockstep models getting the full batching win.

One path: every posterior entry point — :func:`batched_importance_sampling`
(one request), :func:`mixed_batched_importance_sampling` (several) and
both serving backends — flattens its
work into :class:`TraceJob` lists and runs each cohort through
:func:`run_mixed_cohort`.  A job carries its own observation, so "one shared
observation" is just a cohort whose jobs happen to carry the same one; the
session embeds each distinct observation once.

A one-job cohort, and every job of a :class:`RemoteModel` (one multiplexed
PPX transport, so its executions cannot be suspended concurrently), runs on
a one-slot session on the calling thread: each controlled draw is one round,
answered synchronously, with no slot thread and no coordinator.  Guided
proposals therefore have one source, :class:`BatchedProposalSession`.

Randomness: every trace job carries its own stream *key*, derived from the
request ``rng`` (:func:`request_key`), and each execution builds the job's
generator from that key (:meth:`TraceJob.stream`), so results are
independent of the cohort partitioning — ``batch_size=1`` (one-slot
sessions) and ``batch_size=64`` produce the same traces up to
floating-point batching effects, which is what the equivalence tests
assert — and of how often a job runs: a re-run starts from the key.

Importance weights use the ``ExecutionState``-level accounting
``log w = log p(x, y) - log q(x)`` with ``log q`` accumulated over *all*
latent draws (controlled and uncontrolled), so the prior terms of
uncontrolled draws cancel exactly against ``log_joint``.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.common.rng import RandomState, StreamKey, get_rng
from repro.data.dataset import observation_array
from repro.ppl.empirical import Empirical
from repro.ppl.model import RemoteModel
from repro.ppl.state import PriorController, ProposalController, check_observed_keys
from repro.trace.trace import Trace

__all__ = [
    "batched_importance_sampling",
    "mixed_batched_importance_sampling",
    "per_trace_keys",
    "per_trace_rngs",
    "request_key",
    "resolve_observation_array",
    "TraceJob",
    "LockstepStallError",
    "ENGINE_STAT_KEYS",
    "new_engine_stats",
    "merge_engine_stats",
    "merge_session_stats",
    "form_log_weights",
    "run_mixed_cohort",
    "execute_trace_jobs",
]


#: seconds ``_drive_cohort`` waits, in total, for a cohort's slots to finish
_JOIN_DEADLINE_S = 5.0


class LockstepStallError(RuntimeError):
    """A lockstep round made no progress for the coordinator's stall budget.

    Raised by the cohort driver instead of waiting forever when live workers
    stop posting round messages (a wedged simulator, a deadlocked model, a
    stuck remote call).  The message names the slots still owed a message and
    the slots blocked awaiting a proposal, so the offender is identifiable
    from the error alone.  The driver's poison path then releases every
    blocked worker before re-raising, so the failure is loud but clean.
    """


def request_key(rng: RandomState) -> StreamKey:
    """The stream key of one request on ``rng``; its trace ``i`` is keyed ``key + (i,)``.

    One draw (the 31-bit ``base``) is consumed from ``rng``, so repeated calls
    key fresh requests; the key is ``rng.child_key((base,))``, so the traces'
    streams are a pure function of (master seed, base, trace index) and
    inference results do not depend on how traces are partitioned into
    cohorts, or on where and how often a cohort runs.

    ``(base, index)`` are separate SeedSequence entropy words rather than one
    sum: with the old ``base + index`` keying, two requests whose random
    bases landed within ``num_traces`` of each other shared *identical* trace
    streams for the overlapping indices — a birthday collision that serving
    traffic (thousands of requests, each drawing a fresh base) makes
    probable.  Mixing removes the overlap entirely; the cost is that
    fixed-seed draw sequences differ from pre-fix releases (posterior
    *statistics* are unaffected).
    """
    return rng.child_key((int(rng.generator.integers(0, 2**31 - 1)),))


def per_trace_keys(rng: RandomState, num_traces: int) -> List[StreamKey]:
    """One stream key per trace (or per rank) of one request on ``rng``."""
    key = request_key(rng)
    return [key + (index,) for index in range(num_traces)]


#: :func:`per_trace_keys` under the name ``benchmarks/e2e/layers.py`` imports
per_trace_rngs = per_trace_keys


def _shut_gate() -> threading.Lock:
    """A lock created held: ``acquire()`` waits for another thread's ``release()``."""
    gate = threading.Lock()
    gate.acquire()
    return gate


#: inbox marker: the slot owes this round a message and has not posted it yet
_UNPOSTED = object()


class _LockstepCoordinator:
    """Suspends worker executions at controlled draws and answers them in batch.

    Round protocol: every live worker posts exactly one message per round —
    either a proposal request (then blocks until answered) or "done".  Once
    all live workers have been heard from, the pending requests are answered
    with one :meth:`BatchedProposalSession.proposals` call and the requesting
    workers are released for the next round.

    The hand-off is a baton passed on bare locks.  Every lock here except
    ``_lock`` is created *held* and used as a binary gate: the party that
    waits calls ``acquire()`` (and so leaves the gate shut behind it), the
    party that wakes it calls ``release()`` from another thread.  A worker
    blocks on its own slot's gate; the driver blocks on ``_driver_gate``,
    which the *last* poster of a round opens — so a round costs the driver
    one wake-up and each slot one, with no ``Event``/``Condition`` (a
    ``Condition`` allocates and queues a fresh lock per wait) and nothing
    allocated per round but the ``pending`` list the session consumes.  The
    inbox is one cell per slot, so ``pending`` falls out in slot order.  At
    serving cohort sizes (B=64) this coordination, not NN compute, is the
    engine's largest cost.
    """

    def __init__(
        self,
        session,
        num_workers: int,
        stall_timeout: float = 60.0,
        poll_interval: float = 5.0,
    ) -> None:
        self.session = session
        self.num_workers = num_workers
        #: seconds of zero round progress tolerated before the driver raises
        #: :class:`LockstepStallError` (liveness re-checks happen every
        #: ``poll_interval`` regardless; this only bounds how long "no new
        #: message and every laggard thread still alive" may persist)
        self.stall_timeout = float(stall_timeout)
        self.poll_interval = float(poll_interval)
        #: guards the round counters and the poison flag (an ordinary mutex)
        self._lock = threading.Lock()
        #: this round's message per slot: ``_UNPOSTED``, ``None`` (done) or the
        #: ``(slot, address, prior, previous_value)`` request
        self._inbox: List[Any] = [_UNPOSTED] * num_workers
        self._posted = 0
        #: how many messages complete the current round (live outstanding workers)
        self._expected = num_workers
        self._driver_gate = _shut_gate()
        self._slot_gates = [_shut_gate() for _ in range(num_workers)]
        self._responses: List[Any] = [None] * num_workers
        #: set after a driver-side failure: workers stop suspending and run
        #: to completion on the prior fallback instead of deadlocking
        self._poisoned = False

    # ------------------------------------------------------------ worker side
    def _post(self, slot: int, message) -> bool:
        """Fill the slot's inbox cell; returns False when the cohort is poisoned."""
        with self._lock:
            if self._poisoned:
                return False
            self._inbox[slot] = message
            self._posted += 1
            if self._posted == self._expected:
                self._driver_gate.release()  # last poster of the round: baton to the driver
            return True

    def request(self, slot: int, address: str, prior, previous_value):
        """Called from a worker thread; blocks until the round is answered."""
        if not self._post(slot, (slot, address, prior, previous_value)):
            return None  # poisoned cohort: prior fallback, run to completion
        self._slot_gates[slot].acquire()
        return self._responses[slot]

    def finished(self, slot: int) -> None:
        self._post(slot, None)

    # ------------------------------------------------------------ driver side
    def _await_round(self, outstanding: List[int], threads) -> None:
        """Block until every outstanding worker has posted its round message.

        ``threads`` enables a liveness check: a worker that died without ever
        reaching its ``finally`` (interpreter-level failure) is treated as
        done instead of deadlocking the round.

        A round that makes *no* progress — no new message posted, every
        laggard thread still alive — for ``stall_timeout`` cumulative seconds
        raises :class:`LockstepStallError` naming the stuck slots, instead of
        silently re-waiting forever (a wedged simulator used to hang the
        whole cohort here).
        """
        stalled_for = 0.0
        last_posted = -1
        while not self._driver_gate.acquire(timeout=self.poll_interval):
            with self._lock:
                if self._posted == self._expected:
                    continue  # the last poster beat the timeout: take its baton
                missing = [slot for slot in outstanding if self._inbox[slot] is _UNPOSTED]
                if threads is not None:
                    dead = [slot for slot in missing if not threads[slot].is_alive()]
                    if dead:
                        for slot in dead:
                            outstanding.remove(slot)
                            missing.remove(slot)
                        self._expected -= len(dead)
                        if self._posted == self._expected:
                            return  # nobody opened the gate: it stays shut for the next round
                if self._posted > last_posted:
                    last_posted = self._posted
                    stalled_for = 0.0
                else:
                    stalled_for += self.poll_interval
                if stalled_for >= self.stall_timeout:
                    status = {
                        slot: (
                            "alive"
                            if threads is not None and threads[slot].is_alive()
                            else "no-thread-info" if threads is None else "dead"
                        )
                        for slot in missing
                    }
                    raise LockstepStallError(
                        f"lockstep round stalled for {stalled_for:.0f}s: "
                        f"{self._posted}/{self._expected} messages posted, "
                        f"waiting on slots {status} "
                        f"(outstanding={outstanding})"
                    )

    def serve(self, threads: Optional[Sequence[threading.Thread]] = None) -> None:
        """Run rounds until every worker has finished."""
        inbox = self._inbox
        #: slots owed a message this round, ascending
        outstanding = list(range(self.num_workers))
        try:
            while outstanding:
                self._await_round(outstanding, threads)
                # Slot order, not arrival order: the rows of a same-address
                # group are stacked in this order, and BLAS rounds a row's
                # result differently depending on where in the matrix it
                # sits, so thread timing must not pick the row order.  (A
                # slot still ``_UNPOSTED`` here died without posting: done.)
                pending = [
                    inbox[slot]
                    for slot in outstanding
                    if inbox[slot] is not None and inbox[slot] is not _UNPOSTED
                ]
                outstanding = [request[0] for request in pending]
                if not pending:
                    continue
                # The next round's barrier must be armed *before* any
                # released worker can post into it.
                with self._lock:
                    for slot in outstanding:
                        inbox[slot] = _UNPOSTED
                    self._posted = 0
                    self._expected = len(outstanding)
                responses = self.session.proposals(pending)
                for request_slot, proposal in responses.items():
                    self._responses[request_slot] = proposal
                    self._slot_gates[request_slot].release()
        except BaseException:
            # A driver-side failure (e.g. inside the network forward) must not
            # leave workers blocked forever: poison the cohort (so no worker
            # suspends again), release every blocked worker with a prior
            # fallback, and re-raise.  Poisoned workers run to completion on
            # their own threads; the cohort's traces are discarded anyway.
            with self._lock:
                self._poisoned = True
            for slot, gate in enumerate(self._slot_gates):
                self._responses[slot] = None
                # Only this thread opens slot gates, so a gate seen shut stays
                # shut until the release below; one already open (its worker
                # was answered and has not run yet) must not be opened twice.
                if gate.locked():
                    gate.release()
            raise


class _TrackingProposalController(ProposalController):
    """A ProposalController that records the last *controlled* value drawn.

    The previous-sample embedding must be fed the value of the most recent
    controlled draw — training steps the LSTM over controlled draws only, so
    an uncontrolled (``control=False``) value would be encoded under the
    wrong prior.  Every controlled draw, and no other, passes through
    :meth:`choose`, so the controller keeps that one value itself instead of
    searching the execution's trace, which records uncontrolled draws too.

    ``request(address, prior, previous_value)`` returns the session's answer:
    a :class:`repro.ppl.nn.inference_network.DrawnProposal` stub (value
    already drawn on this execution's stream and scored by the session), or
    ``None`` for the prior fallback.  A lockstep slot's request blocks until
    the coordinator answers the round; a one-slot session answers at once.
    """

    def __init__(self, request: Callable) -> None:
        super().__init__(self._provide)
        self._request = request
        self.previous_controlled_value: Any = None

    def _provide(self, address, instance, prior):
        return self._request(address, prior, self.previous_controlled_value)

    def choose(self, address, instance, distribution, name, rng):
        value, log_q = super().choose(address, instance, distribution, name, rng)
        self.previous_controlled_value = value
        return value, log_q


def _worker(model, observation, coordinator, slot, rng, traces, errors) -> None:
    try:
        controller = _TrackingProposalController(
            lambda address, prior, previous_value: coordinator.request(
                slot, address, prior, previous_value
            )
        )
        traces[slot] = model.get_trace(controller, observed_values=observation, rng=rng)
    except BaseException as exc:  # noqa: BLE001 - re-raised by the driver
        errors[slot] = exc
    finally:
        coordinator.finished(slot)


class _SlotThread:
    """A parked daemon thread that runs one cohort slot's task at a time.

    It waits on its own gate (created held, like the coordinator's); a
    cohort lends it a task by storing the call and opening the gate, and
    takes it back by acquiring ``done``, which the thread opens after every
    task.  Between tasks it holds nothing of its last cohort — not the task,
    the coordinator, the traces or the session.  ``retired`` (written under
    ``_slot_lock``) marks a slot that is never lent again: one the driver
    stopped waiting for (a wedged simulator), whose thread exits when its
    task finally returns, or one whose task escaped and killed the thread.
    """

    def __init__(self) -> None:
        self._gate = _shut_gate()
        self.done = _shut_gate()
        self._task: Optional[Callable[[], None]] = None
        self.retired = False
        self.thread = threading.Thread(target=self._run, name="batched-is-slot", daemon=True)
        self.thread.start()

    def lend(self, task: Callable[[], None]) -> None:
        self._task = task
        self._gate.release()

    def _run(self) -> None:
        retired = False
        while not retired:
            self._gate.acquire()
            task, self._task = self._task, None
            escaped = True
            try:
                task()
                escaped = False
            finally:
                task = None  # park without the cohort: the next wait keeps nothing alive
                with _slot_lock:
                    self.retired = retired = self.retired or escaped
                    self.done.release()


#: the process's parked slot threads, and the lock that guards the list and
#: every ``_SlotThread.retired``; a forked child starts with neither
_slot_lock = threading.Lock()
_idle_slots: List[_SlotThread] = []


def _empty_slot_pool() -> None:
    """A forked child has none of its parent's threads: give it an empty pool."""
    global _slot_lock, _idle_slots
    _slot_lock = threading.Lock()
    _idle_slots = []


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_empty_slot_pool)


def _borrow_slots(count: int) -> Tuple[List[_SlotThread], int]:
    """Take ``count`` idle slots, starting threads only for the shortfall.

    Every slot is in hand before any task is lent, so a thread that fails to
    start strands no half-started cohort: the slots already taken go back to
    the idle list and the error propagates.  Returns the slots and how many
    threads were started for them.
    """
    with _slot_lock:
        split = max(0, len(_idle_slots) - count)
        slots = _idle_slots[split:]
        del _idle_slots[split:]
    reused = len(slots)
    try:
        while len(slots) < count:
            slots.append(_SlotThread())
    except BaseException:
        with _slot_lock:
            _idle_slots.extend(slots)
        raise
    return slots, count - reused


def _return_slots(slots: Sequence[_SlotThread]) -> None:
    """Wait for every lent slot's task to end, then park the slots again.

    One deadline for the whole cohort: a per-slot timeout would hold a
    stall error back for ``len(slots)`` timeouts when every simulator is
    wedged.  A slot still running at the deadline is retired, not awaited.
    """
    deadline = time.monotonic() + _JOIN_DEADLINE_S
    finished = [
        slot.done.acquire(timeout=max(0.0, deadline - time.monotonic())) for slot in slots
    ]
    with _slot_lock:
        for slot, done in zip(slots, finished):
            # Under the lock a slot either has not yet read ``retired`` (and
            # will exit once its task returns) or has already opened ``done``.
            if not done and not slot.done.acquire(blocking=False):
                slot.retired = True
            elif not slot.retired:
                _idle_slots.append(slot)


def _drive_cohort(model, session, jobs: Sequence[TraceJob], rngs, stats) -> List[Trace]:
    """Drive ``len(jobs)`` suspended guided executions against ``session``.

    Slot ``slot`` executes ``jobs[slot]`` on a borrowed slot thread:
    conditioned on that job's observation, drawing from ``rngs[slot]``, the
    stream ``session`` draws that slot's proposals on.
    """
    size = len(jobs)
    slot_threads, started = _borrow_slots(size)
    stats["num_slot_threads_started"] += started
    coordinator = _LockstepCoordinator(session, size)
    traces: List[Optional[Trace]] = [None] * size
    errors: List[Optional[BaseException]] = [None] * size
    for slot, (slot_thread, job, rng) in enumerate(zip(slot_threads, jobs, rngs)):
        slot_thread.lend(
            functools.partial(
                _worker, model, job.observation, coordinator, slot, rng, traces, errors
            )
        )
    try:
        coordinator.serve([slot_thread.thread for slot_thread in slot_threads])
    finally:
        # Take the slots back on *every* exit — the poison path has already
        # released any blocked worker, so the bounded wait collects them; a
        # slot still wedged (the stall the coordinator just diagnosed) is
        # retired and must not also hang the driver here.
        _return_slots(slot_threads)
    for error in errors:
        if error is not None:
            raise error
    merge_session_stats(stats, session)
    return traces  # type: ignore[return-value]


def _leased_session(network, jobs: Sequence[TraceJob], rngs, stats, plan_cache):
    """The cohort's session: planned when the cache predicts one, else dynamic.

    The one session-construction site: slot ``slot`` is given
    ``jobs[slot].observation_array`` and ``rngs[slot]`` — the session draws
    each round's proposal values on the slots' own streams.  Returns
    ``(session, plan, scratch)`` with ``plan``/``scratch`` ``None`` on the
    dynamic path.
    """
    observations = [job.observation_array for job in jobs]
    if plan_cache is not None:
        lease = plan_cache.lease(network, len(jobs))
        if lease is not None:
            plan, scratch = lease
            stats["plan_hits"] += 1
            stats["num_planned_cohorts"] += 1
            return network.planned_session(plan, scratch, rngs, observations), plan, scratch
        stats["plan_misses"] += 1
    return network.batched_session(observations, rngs), None, None


def _finish_lease(plan_cache, network, session, plan, scratch, traces, stats) -> None:
    """Post-cohort plan bookkeeping: release scratch, record divergence, observe."""
    if plan_cache is None:
        return
    if plan is not None:
        plan_cache.release(plan, scratch)
        if session.num_plan_divergences and plan_cache.record_divergence(
            plan, session.diverged_at
        ):
            stats["plan_demotions"] += 1
    plan_cache.observe_traces(traces, network)


class TraceJob(NamedTuple):
    """One guided execution owed to a posterior request.

    The serving scheduler flattens every admitted request into ``num_traces``
    trace jobs (each carrying the request's observation and its own stream
    key) and packs jobs from *different* requests into shared lockstep
    cohorts.  ``request_index`` routes the finished trace back to the request
    that owns it.  A job holds no generator: every execution builds one from
    ``key`` (:meth:`stream`), so a job is plain data — a shard pickles as
    observations and a few ints — and running it again, on any backend,
    repeats it draw for draw.
    """

    request_index: int
    observation: Dict[str, Any]
    observation_array: Optional[np.ndarray]
    key: StreamKey

    @classmethod
    def for_request(
        cls, index: int, observation: Dict[str, Any], observation_array, num_traces: int, key: StreamKey
    ) -> List["TraceJob"]:
        """Flatten one request into trace jobs — the one trace-key derivation site.

        ``key`` is the request's stream key (:func:`request_key`); job ``i``
        is keyed ``key + (i,)``, so the traces do not depend on how the jobs
        are later packed into cohorts, where those cohorts execute, or how
        many times.
        """
        return [
            cls(index, observation, observation_array, key + (trace,)) for trace in range(num_traces)
        ]

    def stream(self) -> RandomState:
        """A new generator at the start of this job's stream — built once per execution."""
        return RandomState.from_key(self.key)


#: The one definition of the engine counter key set.  Every stat block is
#: created from it, sessions name their counters by it and every merge
#: iterates actual dict items, so adding a key here is the whole change — no
#: hand-maintained lists at harvest or shard-merge sites to drift out of sync
#: (the key-parity test pins this).
ENGINE_STAT_KEYS: Tuple[str, ...] = (
    "num_cohorts",
    "num_proposal_steps",
    "num_fallbacks",
    "num_rounds",
    "num_batched_steps",
    "num_divergent_rounds",
    "num_observation_embeddings",
    "plan_hits",
    "plan_misses",
    "plan_demotions",
    "num_planned_cohorts",
    "num_planned_rounds",
    "num_plan_divergences",
    "num_plan_geometry_misses",
    "num_slot_threads_started",
)

def new_engine_stats() -> Dict[str, int]:
    """A fresh counter block as attached to results via ``engine_stats``."""
    return {key: 0 for key in ENGINE_STAT_KEYS}


def merge_session_stats(stats: Dict[str, int], session) -> None:
    """Harvest a finished session's counters into an engine stat block.

    A session attribute is named by its stat key.  Counters a session kind
    lacks read as 0 (the dynamic session has no plan counters, and no session
    counts cohorts, plan leases or slot-thread starts — :func:`run_mixed_cohort`
    and :func:`_drive_cohort` do).
    """
    for key in ENGINE_STAT_KEYS:
        stats[key] += getattr(session, key, 0)


def merge_engine_stats(into: Dict[str, int], stats: Dict[str, int]) -> Dict[str, int]:
    """Accumulate one stat block into another without dropping unknown keys.

    Shard merges (serving sinks, pool results) must use
    this rather than iterating a hand-copied key list: a key added to
    :data:`ENGINE_STAT_KEYS` — or reported by a newer worker — merges through
    unchanged instead of being silently dropped.
    """
    for key, value in stats.items():
        into[key] = into.get(key, 0) + value
    return into


def resolve_observation_array(network, observation: Dict[str, Any], observe_key: Optional[str] = None):
    """The observation entry feeding the network's observation embedding.

    ``None`` when no network is supplied (prior proposals need no embedding);
    otherwise :func:`repro.data.dataset.observation_array` under
    ``observe_key`` or the network's — the rule packing uses, so a served
    request and a packed trace embed the same array.
    """
    if network is None:
        return None
    return observation_array(observation, observe_key or network.observe_key)


def _run_one_slot(model, job: TraceJob, rng: RandomState, network, stats: Dict[str, int]) -> Trace:
    """One job on a one-slot lockstep session, every round answered on this thread."""
    session = network.batched_session([job.observation_array], [rng])
    controller = _TrackingProposalController(
        lambda address, prior, previous_value: session.proposals(
            [(0, address, prior, previous_value)]
        )[0]
    )
    trace = model.get_trace(controller, observed_values=job.observation, rng=rng)
    merge_session_stats(stats, session)
    return trace


def run_mixed_cohort(
    model, jobs: Sequence[TraceJob], network, stats: Dict[str, int], plan_cache=None
) -> List[Trace]:
    """Execute one cohort of trace jobs; slots may condition on different observations.

    The one place guided executions are run — direct posteriors and both
    serving backends all arrive here with a
    :class:`TraceJob` list.  Without a network every job draws from the prior
    (likelihood weighting).  Guided jobs all run through
    :meth:`InferenceNetwork.batched_session` (one embedding per distinct
    observation, one batched LSTM step per address group per round).  A
    one-job cohort, or a :class:`RemoteModel` (one multiplexed PPX
    transport, so its executions cannot be suspended concurrently), runs
    each job on its own one-slot session on this thread, without plans;
    larger cohorts run in lockstep on slot threads, and with a
    ``plan_cache`` hot trace types run the compiled planned fast path
    (:mod:`repro.ppl.inference.plans`) with a mid-cohort dynamic fallback.
    Every job draws from a generator built here from its key, so running
    the same jobs again gives the same traces.
    """
    stats["num_cohorts"] += 1
    rngs = [job.stream() for job in jobs]
    if network is None:
        return [
            model.get_trace(PriorController(), observed_values=job.observation, rng=rng)
            for job, rng in zip(jobs, rngs)
        ]
    if len(jobs) == 1 or isinstance(model, RemoteModel):
        return [_run_one_slot(model, job, rng, network, stats) for job, rng in zip(jobs, rngs)]
    session, plan, scratch = _leased_session(network, jobs, rngs, stats, plan_cache)
    try:
        traces = _drive_cohort(model, session, jobs, rngs, stats)
    except BaseException:
        if plan is not None:
            plan_cache.release(plan, scratch)
        raise
    _finish_lease(plan_cache, network, session, plan, scratch, traces, stats)
    return traces


def execute_trace_jobs(
    model, jobs: Sequence[TraceJob], network, plan_cache=None
) -> Tuple[List[Trace], Dict[str, int]]:
    """Run one shard of trace jobs and return ``(traces, engine_stats)``.

    This is the engine entry point of an out-of-process cohort worker: jobs
    arrive pickled (a :class:`TraceJob` carries only the observation, its
    resolved array and its stream key), the lockstep rounds run locally on
    generators built from the keys, and the finished traces plus the engine
    counter block travel back.  Because each job's key was derived in the
    parent (:func:`request_key`) *before* sharding, the traces are
    bit-identical wherever the shard executes — same process, worker thread,
    or worker process — and however often it is re-run.
    """
    stats = new_engine_stats()
    traces = run_mixed_cohort(model, jobs, network, stats, plan_cache=plan_cache)
    return traces, stats


def form_log_weights(
    traces: Sequence[Trace], network, *, observation: Optional[Dict[str, Any]]
) -> List[float]:
    """ExecutionState-level importance weights ``log w = log p(x, y) - log q(x)``.

    ``trace.log_q`` covers *every* latent draw (uncontrolled draws contribute
    their prior density, cancelling the matching term inside ``log_joint``).
    ``traces`` are one request's executions, conditioned on ``observation``;
    a key of it that an execution did not observe is refused
    (:func:`repro.ppl.state.check_observed_keys`).
    """
    log_weights: List[float] = []
    for trace in traces:
        check_observed_keys(observation, trace)
        log_q = getattr(trace, "log_q", None)
        if log_q is None:
            if network is not None:
                # A silent prior fallback would discard the proposal density
                # and bias the posterior — refuse instead.
                raise ValueError(
                    "model.get_trace did not record trace.log_q; guided "
                    "importance weights cannot be formed without it"
                )
            log_q = trace.log_prior
        log_weights.append(trace.log_joint - log_q)
    return log_weights


def _run_requests(
    model, requests, batch_size, network, observe_key, rng, plan_cache
) -> Tuple[List[List[Trace]], Dict[str, int]]:
    """Flatten requests to jobs, run them in cohorts, route traces back per request."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    jobs: List[TraceJob] = []
    for index, (observation, num_traces, request_rng) in enumerate(requests):
        if num_traces <= 0:
            raise ValueError("num_traces must be positive")
        observation_array = resolve_observation_array(network, observation, observe_key)
        jobs.extend(
            TraceJob.for_request(
                index, observation, observation_array, num_traces, request_key(request_rng or rng)
            )
        )
    stats = new_engine_stats()
    traces_by_request: List[List[Trace]] = [[] for _ in requests]
    for start in range(0, len(jobs), batch_size):
        cohort = jobs[start : start + batch_size]
        traces = run_mixed_cohort(model, cohort, network, stats, plan_cache=plan_cache)
        for job, trace in zip(cohort, traces):
            traces_by_request[job.request_index].append(trace)
    return traces_by_request, stats


def mixed_batched_importance_sampling(
    model,
    requests: Sequence[Tuple[Dict[str, Any], int, Optional[RandomState]]],
    batch_size: int = 64,
    network=None,
    observe_key: Optional[str] = None,
    rng: Optional[RandomState] = None,
    plan_cache=None,
) -> List[Empirical]:
    """Run several independent posterior requests through shared cohorts.

    ``requests`` holds ``(observation, num_traces, rng)`` triples; requests
    with ``rng=None`` derive their stream from ``rng`` (or the global state).
    The trace jobs of all requests are flattened in request order and packed
    into lockstep cohorts of up to ``batch_size``, so concurrent requests
    amortize the network forwards that a one-request cohort would pay alone.

    Because every trace draws from a child stream that is a pure function of
    (request rng, trace index), each returned posterior is identical to a
    direct :func:`batched_importance_sampling` run with that request's rng,
    regardless of how jobs were packed into cohorts.

    Returns one :class:`Empirical` per request, each carrying the shared
    ``engine_stats`` counter block of the whole run.
    """
    traces_by_request, stats = _run_requests(
        model, requests, batch_size, network, observe_key, rng or get_rng(), plan_cache
    )
    results: List[Empirical] = []
    for traces, (observation, _, _) in zip(traces_by_request, requests):
        result = Empirical(
            traces,
            form_log_weights(traces, network, observation=observation),
            name="mixed_batched_importance_sampling_posterior",
        )
        result.engine_stats = stats
        results.append(result)
    return results


def batched_importance_sampling(
    model,
    observation: Dict[str, Any],
    num_traces: int = 1000,
    batch_size: int = 64,
    network=None,
    observe_key: Optional[str] = None,
    rng: Optional[RandomState] = None,
    plan_cache=None,
) -> Empirical:
    """Run importance sampling with cohorts of lockstep guided executions.

    The one-request case of :func:`mixed_batched_importance_sampling`.

    Parameters
    ----------
    model:
        A :class:`repro.ppl.model.Model`.
    observation:
        Mapping from observe-statement name to the observed value y.
    num_traces:
        Total number of simulator executions.
    batch_size:
        Cohort size B.  Traces are partitioned into ``ceil(num_traces / B)``
        cohorts.  Cohort executions run on B slot threads, so
        ``model.forward`` must not mutate shared state; ``batch_size=1``
        runs every trace on a one-slot session on the calling thread, for
        non-thread-compatible models (:class:`RemoteModel` is detected and
        serialized automatically).
    network:
        A trained :class:`repro.ppl.nn.inference_network.InferenceNetwork`
        supplying proposals.  ``None`` falls back to prior proposals
        (likelihood weighting) with the same per-trace random streams.
    observe_key:
        Which entry of ``observation`` feeds the observation embedding
        (defaults to ``network.observe_key`` or the single entry).

    Returns
    -------
    Empirical
        Weighted posterior over traces.  The engine's counters (fallbacks,
        batched steps, divergent rounds, cohorts) are attached as the
        ``engine_stats`` attribute.
    """
    (traces,), stats = _run_requests(
        model,
        [(observation, num_traces, None)],
        batch_size,
        network,
        observe_key,
        rng or get_rng(),
        plan_cache,
    )
    result = Empirical(
        traces,
        form_log_weights(traces, network, observation=observation),
        name="batched_importance_sampling_posterior",
    )
    result.engine_stats = stats
    return result

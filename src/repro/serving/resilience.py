"""Failure recovery for the posterior service: retries, breaker, demotion.

The serving tier's baseline failure semantics are *loud*: a worker crash past
the requeue budget, a stopped pool, or an injected fault fails the affected
requests' futures immediately.  That is the right default for tests and for
batch callers, but a production front end wants the paper's deployment
reality — worker death and slow simulators are steady state — absorbed where
possible.  :class:`ServiceResilience` layers that on, opt-in:

* **Retry with jittered exponential backoff.**  Transient failures (worker
  crashes, pool teardown during a backend swap, injected chaos faults) are
  redispatched after a deterministic-jitter backoff, bounded by a per-request
  attempt budget and by the request's own deadline (a retry that cannot land
  before the deadline is not attempted).  A retry re-submits the same trace
  jobs, and a job carries its stream key, not a generator: the re-run builds
  every generator afresh from its key, so a retried request honours the
  seeded-equivalence contract bit-for-bit with nothing to rewind.

* **Circuit breaker.**  Repeated cohort failures open the breaker: new
  uncached submissions fail fast with :class:`BreakerOpen` instead of
  queueing behind a dying pool, cached entries keep being served — including
  *stale* ones, without triggering revalidation traffic — and a half-open
  probe cohort is admitted after ``recovery_time`` to test the water.

* **Graceful backend demotion.**  The failure that brings the breaker's
  openings to ``demote_after`` asks the maintenance thread to swap a
  process-backed service to the thread backend in place (crash storms
  usually mean the *environment* is hostile to subprocesses — fd limits, OOM
  killers, container teardown).  Outstanding shards on the old pool fail
  with the transient :class:`~repro.serving.request.PoolStopped` and are
  retried onto the replacement, so the swap itself sheds nothing.  Nothing
  here polls the pool: the process pool sees a dead worker itself, at the
  end-of-file on its pipe.

``service.stats()`` reads ``retries`` from ``retries_dispatched`` here and
``breaker_state`` / ``breaker_opens`` from the :class:`CircuitBreaker`
itself; nothing keeps a second copy.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.serving.request import ServingError

__all__ = [
    "BreakerOpen",
    "CircuitBreaker",
    "RetryPolicy",
    "ServiceResilience",
    "is_transient",
]


class BreakerOpen(ServingError):
    """Submission/dispatch refused because the circuit breaker is open.

    Transient: an in-flight cohort refused at dispatch is retried after
    backoff (the breaker may have closed by then); a fresh *submission* is
    failed fast instead — the client can fall back or resubmit later.
    """

    transient = True


def is_transient(error: BaseException) -> bool:
    """True for failures a retry may outrun (crashes, teardown races, chaos)."""
    return bool(getattr(error, "transient", False))


class RetryPolicy:
    """Jittered exponential backoff with a hard attempt budget.

    The jitter is *deterministic*: derived from ``sha256(key, attempt)``
    rather than an RNG, so a chaos run's retry timeline is a pure function of
    the failure sequence (reproducible from the chaos seed) and the serving
    tier never draws from any random stream — drawing would shift the
    seeded-equivalence contract of every request admitted after a failure.
    """

    def __init__(
        self,
        max_attempts: int = 3,
        base_delay: float = 0.02,
        multiplier: float = 2.0,
        max_delay: float = 1.0,
        jitter: float = 0.5,
    ) -> None:
        if max_attempts < 0:
            raise ValueError("max_attempts must be >= 0")
        if base_delay < 0 or max_delay < 0:
            raise ValueError("delays must be >= 0")
        self.max_attempts = int(max_attempts)
        self.base_delay = float(base_delay)
        self.multiplier = float(multiplier)
        self.max_delay = float(max_delay)
        self.jitter = float(jitter)

    def delay(self, attempt: int, key: Any = 0) -> float:
        """Backoff before the ``attempt``-th retry (1-based) of ``key``."""
        raw = self.base_delay * (self.multiplier ** max(attempt - 1, 0))
        raw = min(raw, self.max_delay)
        if self.jitter <= 0.0:
            return raw
        digest = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
        fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)
        # raw * [1 - jitter/2, 1 + jitter/2]: spread, but centred so the mean
        # backoff matches the un-jittered schedule.
        return raw * (1.0 + self.jitter * (fraction - 0.5))


class CircuitBreaker:
    """Classic three-state breaker over cohort execution outcomes.

    ``closed`` → (``failure_threshold`` consecutive failures) → ``open`` →
    (``recovery_time`` elapsed) → ``half-open`` (one probe) → ``closed`` on
    success, back to ``open`` on failure.  :meth:`allow` is the consuming
    check used at dispatch (it claims the half-open probe slot);
    :meth:`blocking` is the non-mutating check used at admission.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_time: float = 1.0,
        clock=time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if recovery_time < 0:
            raise ValueError("recovery_time must be >= 0")
        self.failure_threshold = int(failure_threshold)
        self.recovery_time = float(recovery_time)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0
        self._opened_at = 0.0
        self.opens = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def _transition(self, new: str) -> None:
        self._state = new
        if new == "open":
            self.opens += 1
            self._opened_at = self._clock()

    def allow(self) -> bool:
        """May a cohort be dispatched now?  Claims the half-open probe slot."""
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                if self._clock() - self._opened_at >= self.recovery_time:
                    self._transition("half-open")
                    return True  # this caller is the probe
                return False
            return False  # half-open: the probe is already out

    def blocking(self) -> bool:
        """Non-mutating admission check: is the breaker refusing new work?"""
        with self._lock:
            return (
                self._state == "open"
                and self._clock() - self._opened_at < self.recovery_time
            )

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if self._state == "half-open":
                self._transition("open")  # the probe failed: back off again
            elif self._state == "closed" and self._failures >= self.failure_threshold:
                self._transition("open")

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            if self._state != "closed":
                self._transition("closed")

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._failures,
                "opens": self.opens,
                "failure_threshold": self.failure_threshold,
                "recovery_time": self.recovery_time,
            }


class ServiceResilience:
    """Retry/breaker/demotion runtime bound to one :class:`PosteriorService`.

    Construct it, hand it to ``PosteriorService(resilience=...)``, and the
    service wires it into its dispatch and completion paths.  One maintenance
    thread owns every delayed action (backoff redispatch, backend demotion)
    and wakes only when a retry is due or a demotion was asked for, so
    recovery work never runs on the procpool collector thread — demotion
    *joins* that collector, which would deadlock.
    """

    def __init__(
        self,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        *,
        demote_after: Optional[int] = None,
    ) -> None:
        if demote_after is not None and demote_after < 1:
            raise ValueError("demote_after must be >= 1 (or None to disable)")
        self.retry = retry or RetryPolicy()
        self.breaker = breaker or CircuitBreaker()
        self.demote_after = demote_after
        self._service = None
        self._cond = threading.Condition()
        #: (due time, tiebreak, entries, original error) — heapified by due time
        self._pending: List[Any] = []
        self._tiebreak = itertools.count()
        self._attempts: Dict[int, int] = {}
        self._demotion_requested = False
        self._thread: Optional[threading.Thread] = None
        self._stopped = True
        self.retries_dispatched = 0
        self.retries_abandoned = 0

    # ----------------------------------------------------------------- lifecycle
    def bind(self, service) -> None:
        if self._service is not None and self._service is not service:
            raise RuntimeError("a ServiceResilience instance serves one service")
        self._service = service

    def start(self) -> None:
        if self._service is None:
            raise RuntimeError("resilience is not bound to a service")
        with self._cond:
            if not self._stopped:
                return
            self._stopped = False
        self._thread = threading.Thread(
            target=self._loop, name="serving-resilience", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the maintenance thread; fail anything still awaiting retry."""
        with self._cond:
            if self._stopped and self._thread is None:
                return
            self._stopped = True
            pending, self._pending = self._pending, []
            self._attempts.clear()
            self._cond.notify_all()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5.0)
        for _due, _tb, entries, error in pending:
            self.retries_abandoned += 1
            self._fail_entries(
                entries, ServingError(f"service stopped while retrying: {error}")
            )

    # ------------------------------------------------------------------ degraded
    def degraded(self) -> bool:
        """Is the service refusing fresh work (breaker open, pre-recovery)?"""
        return self.breaker.blocking()

    # ------------------------------------------------------------------ failures
    def handle_failure(
        self, entries: Sequence[Any], error: BaseException
    ) -> List[Any]:
        """Absorb a cohort failure; returns the entries that must fail now.

        Transient failures are grouped by request, charged one attempt, and
        (deadline permitting) scheduled for backoff redispatch.  Everything
        else — non-transient errors, exhausted budgets, requests whose
        deadline the backoff would overrun, failures after stop — is returned
        for the caller to fail through the normal path.  A failure that brings
        the breaker's openings to ``demote_after`` also asks the maintenance
        thread for the backend demotion.
        """
        entries = list(entries)
        if not is_transient(error):
            return entries
        # BreakerOpen must not feed back into the breaker's failure count:
        # it *is* the breaker talking, and counting it would hold the breaker
        # open forever.
        if not isinstance(error, BreakerOpen):
            self.breaker.record_failure()
        by_request: Dict[int, List[Any]] = {}
        for entry in entries:
            by_request.setdefault(entry.request.request_id, []).append(entry)
        leftovers: List[Any] = []
        now = time.monotonic()
        with self._cond:
            if self._stopped:
                return entries
            if self.demote_after is not None and self.breaker.opens >= self.demote_after:
                self._demotion_requested = True
            for request_id, group in by_request.items():
                request = group[0].request
                attempt = self._attempts.get(request_id, 0) + 1
                if attempt > self.retry.max_attempts or request.failed:
                    leftovers.extend(group)
                    continue
                delay = self.retry.delay(attempt, key=request_id)
                if request.deadline is not None and now + delay >= request.deadline:
                    # Deadline awareness: the retry could never land in time.
                    leftovers.extend(group)
                    continue
                self._attempts[request_id] = attempt
                heapq.heappush(
                    self._pending, (now + delay, next(self._tiebreak), group, error)
                )
            self._cond.notify_all()
        return leftovers

    def record_success(self) -> None:
        """A cohort completed: close/reset the breaker."""
        self.breaker.record_success()

    def forget(self, request_id: int) -> None:
        """Drop a resolved request's attempt counter (service ``_finish`` hook)."""
        with self._cond:
            self._attempts.pop(request_id, None)

    # --------------------------------------------------------------- maintenance
    def _loop(self) -> None:
        while True:
            with self._cond:
                now = time.monotonic()
                while not (
                    self._stopped
                    or self._demotion_requested
                    or (self._pending and self._pending[0][0] <= now)
                ):
                    self._cond.wait(self._pending[0][0] - now if self._pending else None)
                    now = time.monotonic()
                if self._stopped:
                    return
                due = []
                while self._pending and self._pending[0][0] <= now:
                    due.append(heapq.heappop(self._pending))
                demote, self._demotion_requested = self._demotion_requested, False
            for _due_at, _tb, group, error in due:
                self._redispatch(group, error)
            if demote:
                self._service._demote_to_thread_backend()

    def _redispatch(self, group: List[Any], original: BaseException) -> None:
        service = self._service
        request = group[0].request
        if request.failed or service is None:
            return
        if not self.breaker.allow():
            refused = BreakerOpen(
                f"circuit breaker open: retry of request {request.request_id} refused"
            )
            leftovers = self.handle_failure(group, refused)
            self._fail_entries(leftovers, refused)
            return
        try:
            service.workers.submit(group, service._on_cohort_done)
        except BaseException as error:  # noqa: BLE001 - rescheduled or failed
            leftovers = self.handle_failure(group, error)
            self._fail_entries(leftovers, error)
            return
        with self._cond:
            self.retries_dispatched += 1

    # ------------------------------------------------------------------- helpers
    def _fail_entries(self, entries: Sequence[Any], error: BaseException) -> None:
        service = self._service
        if service is None:
            return
        for entry in entries:
            service._fail_request(entry.request, error)

    # --------------------------------------------------------------------- stats
    def stats(self) -> Dict[str, Any]:
        with self._cond:
            pending = len(self._pending)
            dispatched = self.retries_dispatched
        return {
            "breaker": self.breaker.stats(),
            "retry_max_attempts": self.retry.max_attempts,
            "retries_dispatched": dispatched,
            "retries_pending": pending,
            "retries_abandoned": self.retries_abandoned,
            "demoted": self._service is not None and self._service.demotions > 0,
            "demote_after": self.demote_after,
        }

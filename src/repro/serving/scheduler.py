"""Dynamic micro-batching: coalesce in-flight trace jobs into lockstep cohorts.

The scheduler owns the pending-job queue and a single flush thread.  Incoming
requests are already exploded into per-trace jobs (so a 100-trace request and
ten 10-trace requests exert the same queue pressure).

**Formation rule.**  A cohort is built at the moment an executor can start it,
never earlier: the flush thread first waits for a free executor, and only
then sizes the cohort.  Jobs that arrive while every executor is busy
therefore coalesce for free, up to ``max_batch`` — a cohort sized by a timer
and parked behind a busy worker would have given that batch size away.  Once
an executor is free the classic serving trade-off applies:

* **max-batch** — build at once when a full cohort's worth of jobs is
  pending; batching beyond the cohort size buys nothing.
* **max-latency** — otherwise build when the latency budget is spent, so a
  lone request never waits more than ``max_latency`` for co-batchable
  traffic that may never arrive.  The budget buys batch size with *idle*
  executor time, so it runs from the later of "the oldest job arrived" and
  "an executor came free": clients answered by one cohort send their next
  requests within moments of each other, and the first of them must not
  leave alone just because it beat the executor's release by a millisecond.

Expired requests are shed when a cohort is built (their remaining jobs are
dropped and the request fails with ``DeadlineExceeded`` via the ``on_shed``
callback), so a deadline costs nothing once it has passed — the cohort slots
go to requests that can still meet theirs.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Deque, Dict, List, NamedTuple, Optional

from collections import deque

from repro.ppl.inference.batched import TraceJob
from repro.serving.request import PosteriorRequest
from repro.testing import faults

__all__ = ["CohortEntry", "MicroBatchScheduler"]


class CohortEntry(NamedTuple):
    """One pending trace job plus the request-side routing information."""

    job: TraceJob
    request: PosteriorRequest
    position: int  # index of this trace within its request (submission order)


#: seconds between looks at the stop flag while waiting for an executor
_EXECUTOR_POLL_S = 0.05


class MicroBatchScheduler:
    """Coalesces pending trace jobs into cohorts, one per free executor.

    ``wait_for_executor(timeout)`` blocks until an executor could start a
    cohort (``False`` when ``timeout`` ran out first); the flush thread calls
    it before every build.  ``dispatch(entries)`` is then invoked on the
    flush thread with the built cohort.  While every executor is busy no
    cohort is built and pending jobs accumulate until admission control
    starts rejecting — that is the backpressure path.  ``None`` stands for
    an executor that is always free.
    """

    def __init__(
        self,
        dispatch: Callable[[List[CohortEntry]], None],
        max_batch: int = 64,
        max_latency: float = 0.005,
        on_shed: Optional[Callable[[PosteriorRequest], None]] = None,
        clock=time.monotonic,
        wait_for_executor: Optional[Callable[[float], bool]] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_latency < 0:
            raise ValueError("max_latency must be >= 0")
        self.max_batch = int(max_batch)
        self.max_latency = float(max_latency)
        self._dispatch = dispatch
        self._wait_for_executor = wait_for_executor
        self._on_shed = on_shed
        self._clock = clock
        self._pending: Deque[CohortEntry] = deque()
        self._cond = threading.Condition()
        self._stop = False
        self._drain = False
        self._thread: Optional[threading.Thread] = None
        self.num_flushes = 0
        #: why each cohort was built: it was full / the latency budget of an
        #: idle executor ran out / its jobs had been waiting for an executor
        self.num_full_flushes = 0
        self.num_latency_flushes = 0
        self.num_executor_flushes = 0
        self.num_shed_requests = 0
        #: seconds the flush thread spent waiting for an executor with jobs pending
        self.executor_wait_s = 0.0
        #: when the flush thread last had to wait for an executor and got one
        self._executor_free_at = float("-inf")

    # ----------------------------------------------------------------- lifecycle
    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("scheduler already started")
        self._thread = threading.Thread(target=self._run, name="posterior-scheduler", daemon=True)
        self._thread.start()

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the flush thread; ``drain`` flushes remaining jobs first."""
        with self._cond:
            self._stop = True
            self._drain = drain
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    # ----------------------------------------------------------------- admission
    def submit(self, entries: List[CohortEntry]) -> None:
        """Append one request's trace jobs (called from client threads)."""
        with self._cond:
            if self._stop:
                raise RuntimeError("scheduler is stopped")
            self._pending.extend(entries)
            self._cond.notify_all()

    @property
    def pending_jobs(self) -> int:
        with self._cond:
            return len(self._pending)

    def cancel_pending(self, error_factory: Callable[[PosteriorRequest], BaseException]) -> int:
        """Drop every pending job, failing each distinct affected request."""
        with self._cond:
            entries = list(self._pending)
            self._pending.clear()
        cancelled = 0
        for entry in entries:
            if entry.request.fail(error_factory(entry.request)):
                cancelled += 1
        return cancelled

    def stats(self) -> Dict[str, Any]:
        return {
            "num_flushes": self.num_flushes,
            "num_full_flushes": self.num_full_flushes,
            "num_latency_flushes": self.num_latency_flushes,
            "num_executor_flushes": self.num_executor_flushes,
            "executor_wait_s": self.executor_wait_s,
            "num_shed_requests": self.num_shed_requests,
            "pending_jobs": self.pending_jobs,
            "max_batch": self.max_batch,
            "max_latency": self.max_latency,
        }

    # -------------------------------------------------------------- flush thread
    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._stop:
                    self._cond.wait()
                if self._stop and not (self._drain and self._pending):
                    break
            # Outside the lock, so admissions continue: whatever arrives while
            # every executor is busy joins the cohort built when one frees.
            self._await_executor()
            with self._cond:
                if not self._pending or (self._stop and not self._drain):
                    continue  # cancelled, or stopped without drain, meanwhile
                now = self._clock()
                oldest = self._pending[0].request.enqueued_at
                flush_at = max(oldest, self._executor_free_at) + self.max_latency
                if len(self._pending) < self.max_batch and now < flush_at and not self._stop:
                    # Not enough co-batchable work yet: sleep until the
                    # latency budget is spent (or more jobs arrive, which
                    # re-notifies and re-evaluates).
                    self._cond.wait(timeout=flush_at - now)
                    continue
                cohort, shed = self._build_cohort(now)
            for request in shed:
                self.num_shed_requests += 1
                if self._on_shed is not None:
                    self._on_shed(request)
            if cohort:
                self.num_flushes += 1
                if len(cohort) >= self.max_batch:
                    self.num_full_flushes += 1
                elif self._executor_free_at >= oldest:
                    self.num_executor_flushes += 1
                else:
                    self.num_latency_flushes += 1
                try:
                    # Chaos hook: flush-thread stragglers (delay) and injected
                    # dispatch failures (error) share the real failure path
                    # below.  Free when injection is off.
                    faults.perform("scheduler.flush", size=len(cohort))
                    self._dispatch(cohort)
                except BaseException as error:  # noqa: BLE001 - routed to futures
                    # A dispatch failure must not kill the flush thread (that
                    # would strand every future ever submitted) — fail the
                    # cohort's requests and keep serving.
                    for entry in cohort:
                        entry.request.fail(error)

    def _await_executor(self) -> None:
        """Block until an executor can start a cohort (or a stop without drain)."""
        wait = self._wait_for_executor
        if wait is None or wait(0.0):
            return
        started = self._clock()
        while not (self._stop and not self._drain) and not wait(_EXECUTOR_POLL_S):
            pass
        self._executor_free_at = self._clock()
        self.executor_wait_s += self._executor_free_at - started

    def _build_cohort(self, now: float):
        """Pop up to ``max_batch`` live jobs; collect newly expired requests."""
        cohort: List[CohortEntry] = []
        shed: List[PosteriorRequest] = []
        shed_ids = set()
        while self._pending and len(cohort) < self.max_batch:
            entry = self._pending.popleft()
            request = entry.request
            if request.failed or request.request_id in shed_ids:
                continue  # already failed/shed: drop its remaining jobs
            if request.expired(now):
                shed.append(request)
                shed_ids.add(request.request_id)
                continue
            cohort.append(entry)
        return cohort, shed

"""Request/response types of the posterior serving layer.

A :class:`PosteriorRequest` is the unit of admission: one observation, a trace
budget, an optional deadline, and a future the client blocks on.  Internally
the scheduler explodes it into per-trace jobs (each with its own derived
stream key) so that jobs from different requests can share lockstep
cohorts; this module owns the bookkeeping that reassembles finished traces
into per-request posteriors in submission order, however cohorts complete.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Union

from repro.ppl.empirical import Empirical, FrozenPosterior
from repro.trace.trace import Trace

__all__ = [
    "DeadlineExceeded",
    "PoolStopped",
    "PosteriorRequest",
    "ServedPosterior",
    "ServiceOverloaded",
    "ServingError",
]


class ServingError(RuntimeError):
    """Base class of serving-layer failures delivered through request futures.

    Subclasses (and other error types) may set a class attribute
    ``transient = True`` to mark the failure as retryable: the opt-in
    resilience layer (:mod:`repro.serving.resilience`) redispatches transient
    cohort failures with backoff instead of failing the request's future.
    """

    transient = False


class ServiceOverloaded(ServingError):
    """The request was rejected at admission (queue full or service stopped)."""


class PoolStopped(ServingError):
    """A worker pool was stopped while this cohort was queued or in flight.

    Transient: during a backend demotion the old pool's outstanding shards
    fail with this error and are retried onto the replacement pool.  During a
    real service stop the resilience layer is already down, so the error
    passes through to the future exactly like the plain ``ServingError`` it
    used to be.
    """

    transient = True


class DeadlineExceeded(ServingError):
    """The request was shed because its deadline passed before it could run."""


@dataclass
class ServedPosterior:
    """What a completed request resolves to.

    ``posterior`` is the full weighted :class:`Empirical` when inference ran,
    or the cache's :class:`FrozenPosterior` summary on a cache hit (``cached``
    distinguishes the two); both support ``extract``/``log_evidence``/
    ``effective_sample_size``.  ``latency`` is seconds from admission to
    completion.

    Unlike the one-shot engine entry points, ``posterior.engine_stats`` on a
    served result is a snapshot of the *service-lifetime cumulative* engine
    counters at completion time — cohorts are shared between requests, so no
    exact per-request attribution exists.  Use ``service.stats()['engine']``
    deltas for rate monitoring rather than reading one result's counters.
    """

    request_id: int
    posterior: Union[Empirical, FrozenPosterior]
    cached: bool
    latency: float
    num_traces: int


class PosteriorRequest:
    """One in-flight posterior query and its reassembly state.

    Trace delivery and failure can race between worker threads (a request may
    span several cohorts completing on different workers), so all state
    transitions go through one lock.  ``deliver`` slots each finished trace at
    its submission-order position, which keeps the reassembled trace list —
    and therefore the floating-point reduction order of the posterior weights
    — independent of cohort completion order.
    """

    def __init__(
        self,
        request_id: int,
        observation: Dict[str, Any],
        num_traces: int,
        deadline: Optional[float] = None,
        clock=time.monotonic,
    ) -> None:
        self.request_id = request_id
        self.observation = observation
        self.num_traces = int(num_traces)
        self.deadline = deadline  # absolute, on the service clock; None = no deadline
        self.enqueued_at = clock()
        self.future: "Future[ServedPosterior]" = Future()
        # Set by the service at admission:
        #: the cache key its result is stored under
        self.cache_key: Optional[str] = None
        #: the network generation it was admitted under
        self.network_version = 0
        #: its admission record in the capture file, if one is kept
        self.capture_order: Optional[int] = None
        self._traces: List[Optional[Trace]] = [None] * self.num_traces
        self._remaining = self.num_traces
        self._failed = False
        self._resolved = False
        self._lock = threading.Lock()

    # ------------------------------------------------------------- transitions
    def deliver(self, position: int, trace: Trace) -> bool:
        """Slot one finished trace; returns True when the request is complete."""
        with self._lock:
            if self._failed:
                return False
            if self._traces[position] is None:
                self._traces[position] = trace
                self._remaining -= 1
            return self._remaining == 0

    def fail(self, error: BaseException) -> bool:
        """Resolve the future with ``error`` (first resolution wins).

        Works at any point before :meth:`complete` — including after every
        trace was delivered, which is how a failure while *forming* the
        posterior (weights, summaries) still reaches the client instead of
        leaving the future pending forever.  The future is resolved under the
        request lock so ``fail``/``complete`` races pick exactly one winner.
        """
        with self._lock:
            if self._resolved:
                return False
            self._resolved = True
            self._failed = True
            self.future.set_exception(error)
        return True

    def complete(self, result) -> bool:
        """Resolve the future with ``result``; returns False if already resolved."""
        with self._lock:
            if self._resolved:
                return False
            self._resolved = True
            self.future.set_result(result)
        return True

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline

    @property
    def failed(self) -> bool:
        return self._failed

    def traces(self) -> List[Trace]:
        """The complete, submission-ordered trace list (call only when done)."""
        assert self._remaining == 0 and not self._failed
        return list(self._traces)  # type: ignore[arg-type]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PosteriorRequest(id={self.request_id}, num_traces={self.num_traces}, "
            f"remaining={self._remaining}, failed={self._failed})"
        )

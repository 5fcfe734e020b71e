"""Posterior serving: an async micro-batching front end over the lockstep engine.

The paper's end state is *interactive* posterior inference: a trained
inference network answers posterior queries for live simulator observations,
and because amortized inference is importance sampling with NN proposals, the
marginal cost of a query is dominated by network forwards that batch almost
for free.  This package turns that observation into a service:

* :class:`PosteriorService` — the front end: accepts concurrent posterior
  requests, applies admission control (bounded queue, per-request deadlines),
  answers repeated queries from an observation-keyed cache of frozen
  posterior summaries, and single-flights concurrent identical queries onto
  one inference run.
* :class:`MicroBatchScheduler` — coalesces the trace jobs of in-flight
  requests (possibly conditioning on *different* observations) into lockstep
  cohorts, each built at the moment an executor can start it (full batch or
  spent latency budget while one is idle; free coalescing while none is).
* :class:`CohortWorkerPool` / :class:`ProcessCohortPool` — the one cohort
  executor, on threads or on persistent worker *processes*
  (``backend="process"``: sidesteps the GIL for CPU-bound simulators; crashed
  workers are respawned and their shards requeued).  Either pool is built
  from ``(model, network, num_workers, use_plans, on_stats)``, runs every
  submitted shard of trace jobs through ``execute_trace_jobs``, owns the
  compiled-plan cache, hands engine counters to ``on_stats`` and follows a
  retraining through ``refresh`` (:mod:`repro.serving.workers` states the
  contract).  The service and the distributed importance-sampling driver are
  its two users.
* :class:`ServingMetrics` — the events only the service sees: QPS, latency
  percentiles, cohort occupancy, sheds and phase totals.
  ``PosteriorService.stats()`` adds every other counter by reading the
  component that owns it (cache, resilience, pool, engine).
* :class:`ServiceResilience` — hardened failure semantics: retry with
  jittered exponential backoff under request deadlines, a circuit breaker
  (cached posteriors keep being served while it is open), and graceful
  process→thread backend demotion after crash storms.
* :class:`RequestCapture` / :func:`replay_capture` — record every admitted
  request (observation, stream key, admission order, model version) and
  replay a capture deterministically: replayed posteriors are bit-identical,
  so any failing chaos seed becomes a reproducible regression case.

Because every trace job carries a stream key that is a pure function of
(request rng, trace index) — the same derivation the one-shot engine uses —
a served posterior is identical to a direct
:meth:`repro.ppl.inference.inference_compilation.InferenceCompilation.posterior`
call with the same seed, no matter how requests were packed into cohorts.
"""

from repro.serving.cache import PosteriorCache, observation_fingerprint
from repro.serving.capture import (
    ReplayMismatch,
    ReplayReport,
    RequestCapture,
    load_capture,
    posterior_digest,
    replay_capture,
)
from repro.serving.metrics import ServingMetrics
from repro.serving.procpool import ProcessCohortPool, WorkerCrashed
from repro.serving.request import (
    DeadlineExceeded,
    PoolStopped,
    PosteriorRequest,
    ServedPosterior,
    ServiceOverloaded,
    ServingError,
)
from repro.serving.resilience import (
    BreakerOpen,
    CircuitBreaker,
    RetryPolicy,
    ServiceResilience,
    is_transient,
)
from repro.serving.scheduler import MicroBatchScheduler
from repro.serving.service import PosteriorService
from repro.serving.workers import CohortWorkerPool

__all__ = [
    "BreakerOpen",
    "CircuitBreaker",
    "CohortWorkerPool",
    "DeadlineExceeded",
    "MicroBatchScheduler",
    "PoolStopped",
    "PosteriorCache",
    "PosteriorRequest",
    "PosteriorService",
    "ProcessCohortPool",
    "ReplayMismatch",
    "ReplayReport",
    "RequestCapture",
    "RetryPolicy",
    "ServedPosterior",
    "ServiceOverloaded",
    "ServiceResilience",
    "ServingError",
    "ServingMetrics",
    "WorkerCrashed",
    "is_transient",
    "load_capture",
    "observation_fingerprint",
    "posterior_digest",
    "replay_capture",
]

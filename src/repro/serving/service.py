"""The posterior inference service: admission, batching, caching, metrics.

:class:`PosteriorService` is the public front end of the serving subsystem.
A request travels:

1. **cache** — a fingerprint of (observation, model id, num_traces) is looked
   up; a hit resolves immediately with a frozen posterior summary.
2. **admission control** — the pending-job queue is bounded; a request whose
   trace jobs would overflow it is rejected with ``ServiceOverloaded`` (shed
   at the door, not buffered into unbounded latency).
3. **micro-batching** — the scheduler coalesces the request's trace jobs with
   every other in-flight request into lockstep cohorts (max-batch/max-latency
   flush policy); each flushed batch is cut into shards and submitted to the
   cohort pool (threads or processes, one contract — see
   :mod:`repro.serving.workers`), which owns the model/network handles and
   the plan cache and reports engine counters back through ``on_stats``.
4. **completion** — finished traces are reassembled in submission order, the
   importance weights are formed exactly as the one-shot engine forms them,
   the result is frozen into the cache, and the client future resolves.

Seeded equivalence: a request submitted with ``seed=s`` returns the same
posterior as ``engine.posterior(model, observation, num_traces, rng=
RandomState(s))``, because both key the request with
:func:`repro.ppl.inference.batched.request_key` and each trace job with that
key plus its index — cohort packing only changes which NN forwards were
shared, never the samples drawn.  The key mixes ``(base, trace index)`` as
separate entropy words, so two concurrent requests can never share trace
streams — the old ``base + index`` keying collided whenever two requests'
random bases landed within ``num_traces`` of each other, which sustained
serving traffic turns into a birthday near-certainty over the 2^31 base
space.  A job carries its key, not a generator: a retried shard builds its
generators again from the keys, and a captured request replays from its
recorded key.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from itertools import count
from typing import Any, Dict, List, Optional, Union

from repro.common.rng import RandomState, StreamKey, get_rng
from repro.common.utils import shard_jobs
from repro.ppl.empirical import Empirical
from repro.ppl.model import RemoteModel
from repro.ppl.inference.batched import (
    TraceJob,
    form_log_weights,
    merge_engine_stats,
    new_engine_stats,
    request_key,
    resolve_observation_array,
)
from repro.serving.cache import PosteriorCache, observation_fingerprint
from repro.serving.capture import RequestCapture, posterior_digest
from repro.serving.metrics import ServingMetrics
from repro.serving.procpool import ProcessCohortPool
from repro.serving.request import (
    DeadlineExceeded,
    PosteriorRequest,
    ServedPosterior,
    ServiceOverloaded,
    ServingError,
)
from repro.serving.resilience import BreakerOpen, ServiceResilience
from repro.serving.scheduler import CohortEntry, MicroBatchScheduler
from repro.serving.workers import CohortWorkerPool
from repro.testing import faults

__all__ = ["PosteriorService"]

#: executors a backend gets when the caller names no ``num_workers``
_DEFAULT_NUM_WORKERS = {"thread": 1, "process": 2}


class PosteriorService:
    """Serve amortized posterior inference over a trained network.

    Parameters
    ----------
    model:
        The generative model (local :class:`repro.ppl.model.Model`; remote
        PPX models are served too, but execute their cohorts sequentially).
    network:
        The trained :class:`repro.ppl.nn.inference_network.InferenceNetwork`
        (or ``None`` to serve likelihood weighting from the prior).
    max_batch:
        Lockstep cohort capacity — the micro-batching ceiling.
    max_latency:
        Seconds a lone request waits, *with an executor idle*, for
        co-batchable traffic before its cohort is built anyway.  While every
        executor is busy nothing is built and pending jobs coalesce for free.
    num_workers / shard_min:
        Worker-pool width; a built cohort is split over the *free* executors
        into shards of at least ``shard_min`` jobs (cohorts are independent
        importance-sampling streams, so sharding never changes results).
        ``None`` (default) is 1 on ``"thread"`` and 2 on ``"process"``:
        cohort threads share one GIL, so a second thread runs no more Python
        per second — it only cuts cohorts in half.  Ask for more threads
        when the simulator releases the GIL (native code, a remote call).
    backend:
        ``"thread"`` (default) executes cohorts on worker threads in this
        process; ``"process"`` ships them to persistent worker processes
        (:class:`repro.serving.procpool.ProcessCohortPool`), which sidesteps
        the GIL for CPU-bound simulators — pick it when there are cores to
        use and a cohort outweighs pickling its jobs and traces.  Seeded
        posteriors are bit-identical
        across backends because every trace job's stream key is derived in
        the parent before dispatch.  Remote PPX models force the thread
        backend (their one transport cannot be shared with a forked worker).
    queue_capacity:
        Bound on pending trace jobs; admission control rejects beyond it.
    cache_capacity / cache_ttl:
        Observation-keyed posterior cache size and staleness bound.  With a
        TTL set, expired entries are served stale while a single-flight
        background refresh recomputes them (stale-while-revalidate); entries
        are dropped outright when the network is retrained in place (the
        service listens for the network's update notifications).
    mp_start_method / max_requeues:
        Process-backend tuning: the multiprocessing start method (default
        ``fork`` where available, so models/networks need not pickle) and how
        many times a crashed worker's shard is requeued before failing loudly.
    use_plans:
        Enable compiled trace-type execution plans
        (:class:`repro.ppl.inference.plans.PlanCache`): hot trace types are
        compiled once into pre-allocated cohort plans and re-served from the
        cache, with dynamic fallback on divergence.  The pool owns the cache:
        thread workers share one, each worker process builds its own (plans
        hold numpy scratch that must not cross process boundaries).  Planned
        and dynamic execution are bit-identical, so this only changes speed,
        never posteriors.
    resilience:
        Optional :class:`repro.serving.resilience.ServiceResilience`: retries
        transient cohort failures with jittered backoff (deadline-aware),
        circuit-breaks repeated failures (new uncached submissions then fail
        fast with :class:`~repro.serving.resilience.BreakerOpen` while cached
        — including stale — entries keep being served), and optionally
        demotes process → thread after crash storms.  ``None`` (the default)
        keeps the loud fail-fast semantics.
    capture:
        Optional :class:`repro.serving.capture.RequestCapture` (or a path
        string): every non-internal admitted request is recorded
        (observation, stream key, admission order, network version)
        together with its outcome digest, for deterministic replay via
        :func:`repro.serving.capture.replay_capture`.
    """

    def __init__(
        self,
        model,
        network=None,
        *,
        observe_key: Optional[str] = None,
        max_batch: int = 64,
        max_latency: float = 0.005,
        num_workers: Optional[int] = None,
        shard_min: int = 16,
        backend: str = "thread",
        queue_capacity: int = 4096,
        cache_capacity: int = 256,
        cache_ttl: Optional[float] = None,
        default_num_traces: int = 100,
        rng: Optional[RandomState] = None,
        mp_start_method: Optional[str] = None,
        max_requeues: int = 1,
        use_plans: bool = True,
        resilience: Optional[ServiceResilience] = None,
        capture: Optional[Union[str, RequestCapture]] = None,
        name: str = "posterior-service",
    ) -> None:
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if default_num_traces < 1:
            raise ValueError("default_num_traces must be >= 1")
        if backend not in ("thread", "process"):
            raise ValueError(f"backend must be 'thread' or 'process', got {backend!r}")
        self.model = model
        self.network = network
        self.observe_key = observe_key
        self.name = name
        self.default_num_traces = int(default_num_traces)
        self.queue_capacity = int(queue_capacity)
        self.shard_min = max(1, int(shard_min))
        self._rng = rng or get_rng()
        self.metrics = ServingMetrics()
        self.cache = PosteriorCache(capacity=cache_capacity, ttl=cache_ttl)
        # A remote simulator multiplexes one unsynchronized PPX transport, so
        # its executions must never run on two workers at once — the same
        # constraint the engine applies within a cohort — and the transport
        # cannot be shared with a forked worker process at all.
        if isinstance(model, RemoteModel):
            num_workers = 1
            backend = "thread"
        self.use_plans = bool(use_plans) and network is not None
        #: as requested — ``None`` resolves per backend, also after a demotion
        self._num_workers = num_workers
        self.workers = self._make_pool(
            backend, num_workers, start_method=mp_start_method, max_requeues=max_requeues
        )
        self.backend = self.workers.backend
        self.scheduler = MicroBatchScheduler(
            self._dispatch,
            max_batch=max_batch,
            max_latency=max_latency,
            on_shed=self._shed,
            wait_for_executor=self._wait_for_executor,
        )
        self._engine_stats = new_engine_stats()
        self._stats_lock = threading.Lock()
        self._admission_lock = threading.Lock()
        self._request_ids = count()
        self._inflight: Dict[int, PosteriorRequest] = {}
        #: single-flight registry: cache key -> the in-flight request computing it
        self._inflight_keys: Dict[str, PosteriorRequest] = {}
        self._running = False
        model_name = getattr(model, "name", type(model).__name__)
        self._model_id = f"{model_name}/{observe_key or ''}/{id(network)}"
        #: guards backend demotion: the workers/backend swap must be atomic
        #: with respect to concurrent demotion attempts (dispatch itself only
        #: reads the attribute, which is atomic).
        self._backend_lock = threading.RLock()
        #: process -> thread swaps performed (at most one: the swap is one-way)
        self.demotions = 0
        self._resilience = resilience
        if self._resilience is not None:
            self._resilience.bind(self)
        self._capture = RequestCapture(capture) if isinstance(capture, str) else capture

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> "PosteriorService":
        if self._running:
            raise RuntimeError("service already started")
        self.workers.start()
        self.scheduler.start()
        if self.network is not None and hasattr(self.network, "add_update_listener"):
            # In-place retraining makes every cached posterior wrong (not just
            # old): drop this service's entries the moment it happens.
            self.network.add_update_listener(self._on_network_updated)
        if self._capture is not None:
            self._capture.write_header(self._model_id, getattr(self.network, "version", 0))
        self._running = True
        if self._resilience is not None:
            self._resilience.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop serving; ``drain`` finishes admitted requests first.

        With ``drain=False`` pending and in-flight requests resolve with a
        :class:`ServingError`/:class:`ServiceOverloaded` instead of hanging —
        no future submitted before the stop is ever abandoned.
        """
        if not self._running:
            return
        self._running = False
        if self.network is not None and hasattr(self.network, "remove_update_listener"):
            self.network.remove_update_listener(self._on_network_updated)
        self.scheduler.stop(drain=drain)
        if not drain:
            self.scheduler.cancel_pending(
                lambda request: ServiceOverloaded("service stopped before request ran")
            )
        # Resilience goes down before the pool: requests still waiting out a
        # retry backoff fail here (they are failures being retried, not
        # admitted work in the pool — drain does not wait for them), and any
        # cohort failure surfacing during the pool's drain passes straight
        # through to the futures instead of being rescheduled.
        if self._resilience is not None:
            self._resilience.stop()
        self.workers.stop(drain=drain)
        # Anything still unresolved (e.g. stop(drain=False) raced a cohort) is
        # failed rather than left hanging on its future forever.
        for request in list(self._inflight.values()):
            request.fail(ServingError("service stopped"))
        if self._capture is not None:
            self._capture.close()

    def __enter__(self) -> "PosteriorService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------ admission
    def submit(
        self,
        observation: Dict[str, Any],
        num_traces: Optional[int] = None,
        *,
        seed: Optional[int] = None,
        rng: Optional[RandomState] = None,
        deadline: Optional[float] = None,
        use_cache: bool = True,
        stream_key: Optional[StreamKey] = None,
    ) -> "Future[ServedPosterior]":
        """Admit one posterior request; returns a future of :class:`ServedPosterior`.

        ``seed``/``rng`` pin the request's random stream (for reproducibility
        and the seeded-equivalence guarantee); by default a fresh stream is
        derived from the service rng.  ``stream_key`` instead names the
        request's stream key outright (a capture file's record of it, see
        :func:`repro.serving.capture.replay_capture`) and takes precedence.
        ``deadline`` is seconds from now — a request that cannot start in
        time is shed with ``DeadlineExceeded``.
        With ``use_cache=True`` an identical query may be answered by the
        cache or by coalescing onto an identical in-flight request (both
        ignore ``seed``); ``use_cache=False`` forces a fresh seeded inference
        run (and refreshes the cache entry).
        """
        if not self._running:
            raise ServiceOverloaded("service is not running")
        num_traces = self.default_num_traces if num_traces is None else int(num_traces)
        if num_traces < 1:
            raise ValueError("num_traces must be >= 1")
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be positive seconds from now")
        # Validation errors (bad observe key) surface here, not on a worker.
        observation_array = resolve_observation_array(self.network, observation, self.observe_key)

        self.metrics.record_submitted()
        key = observation_fingerprint(observation, self._model_id, num_traces)
        if use_cache:
            # The miss is not recorded yet: it may still be resolved by
            # single-flight coalescing below, in which case the cache counts
            # it as a hit.  A TTL-expired entry is served *stale* while one
            # background refresh recomputes it — repeated queries never stack
            # up behind a cold recompute.
            found = self.cache.lookup(key, record_miss=False, allow_stale=True)
            if found.value is not None:
                if found.stale:
                    if self._resilience is not None and self._resilience.degraded():
                        # Degraded mode: keep answering from the stale entry
                        # but skip the refresh — revalidation traffic against
                        # an open breaker would only feed the failure storm.
                        self.metrics.record_degraded_stale()
                    else:
                        self._schedule_revalidation(
                            observation, observation_array, num_traces, key
                        )
                future: "Future[ServedPosterior]" = Future()
                result = ServedPosterior(
                    request_id=next(self._request_ids),
                    posterior=found.value,
                    cached=True,
                    latency=0.0,
                    num_traces=num_traces,
                )
                self.metrics.record_completed(0.0, num_traces, cached=True)
                future.set_result(result)
                return future

        with self._admission_lock:
            if use_cache:
                # Single-flight: an identical query already being computed
                # answers this one too — concurrent clients asking for the
                # same posterior (the thundering-herd case the cache alone
                # cannot catch, because nothing is cached until the first
                # finishes) share one inference run.  Only now is the cache
                # outcome known: coalescing counts as a hit, anything else as
                # the miss the earlier lookup found.
                primary = self._inflight_keys.get(key)
                if primary is not None:
                    return self._attach_to_inflight(primary, num_traces)
                self.cache.record_miss()
            if self._resilience is not None and self._resilience.degraded():
                # Fail fast instead of queueing fresh inference behind a pool
                # the breaker has declared dead; cached (and stale) entries
                # were already served above.
                raise BreakerOpen(
                    "circuit breaker open: no cached posterior for this observation"
                )
            request_rng = rng or (RandomState(seed) if seed is not None else self._rng)
            request = self._admit_locked(
                observation, observation_array, num_traces, key, deadline, request_rng,
                stream_key=stream_key,
            )
        return request.future

    def _admit_locked(
        self,
        observation: Dict[str, Any],
        observation_array,
        num_traces: int,
        key: str,
        deadline: Optional[float],
        request_rng: RandomState,
        stream_key: Optional[StreamKey] = None,
        internal: bool = False,
    ) -> PosteriorRequest:
        """Admit one request (admission lock held): register, derive, enqueue.

        The request's stream key is ``stream_key`` when given, else drawn
        from ``request_rng`` here, after the overload checks, so a rejected
        request consumes nothing of a shared stream.

        ``internal`` marks service-originated requests (background cache
        refreshes): they are excluded from the client-facing completion,
        latency and failure metrics — `revalidations` tracks them instead.
        """
        if self.scheduler.pending_jobs + num_traces > self.queue_capacity:
            self.metrics.record_rejected()
            raise ServiceOverloaded(
                f"pending queue full ({self.scheduler.pending_jobs} jobs pending, "
                f"capacity {self.queue_capacity})"
            )
        # Chaos hook: synthetic queue-full bursts take the exact rejection
        # path a real overload takes.  Free when injection is off.
        action = faults.fault_point("service.admit", num_traces=num_traces)
        if action is not None and action.kind == "reject":
            self.metrics.record_rejected()
            raise ServiceOverloaded("injected admission rejection (queue-full burst)")
        request_id = next(self._request_ids)
        request = PosteriorRequest(
            request_id,
            observation,
            num_traces,
            deadline=None if deadline is None else time.monotonic() + deadline,
        )
        request.cache_key = key
        request.internal = internal
        # Snapshot the network generation at admission: if a retrain lands
        # while this request is in flight, its posterior (old/mid-training
        # parameters) must not be written into the freshly invalidated cache.
        request.network_version = getattr(self.network, "version", 0)
        # Identical stream derivation to the one-shot engine: the request
        # rng is consumed exactly as batched_importance_sampling consumes
        # its rng argument (under the admission lock — shared-stream
        # submits must not interleave).
        if stream_key is None:
            stream_key = request_key(request_rng)
        if self._capture is not None and not internal:
            request.capture_order = self._capture.record_admission(
                request_id, observation, num_traces, stream_key, request.network_version
            )
        self._inflight_keys[key] = request
        # Cleanup rides on the future itself, so *every* resolution path
        # (completion, worker failure, shedding, scheduler-side failure,
        # stop) clears the single-flight registry and in-flight table.
        request.future.add_done_callback(lambda _done, _request=request: self._finish(_request))
        jobs = TraceJob.for_request(request_id, observation, observation_array, num_traces, stream_key)
        entries = [CohortEntry(job, request, position) for position, job in enumerate(jobs)]
        self._inflight[request_id] = request
        try:
            self.scheduler.submit(entries)
        except BaseException as error:  # noqa: BLE001 - resolved + re-raised
            # Resolving the future runs _finish, which clears the just-made
            # registry entries — no half-admitted request can leak.
            request.fail(error)
            raise
        return request

    def _schedule_revalidation(
        self, observation: Dict[str, Any], observation_array, num_traces: int, key: str
    ) -> None:
        """Start one background refresh of a stale cache entry (single-flight).

        Best-effort by design: if an identical request is already in flight it
        will refresh the entry itself, and if the queue is full the refresh is
        simply skipped — the client was already answered from the stale entry,
        so a refresh failure must never surface to it.
        """
        with self._admission_lock:
            if key in self._inflight_keys:
                return
            if self.scheduler.pending_jobs + num_traces > self.queue_capacity:
                return  # shed the refresh, not the client (it has its answer)
            try:
                request = self._admit_locked(
                    observation, observation_array, num_traces, key, None, self._rng,
                    internal=True,
                )
            except BaseException:  # noqa: BLE001 - the client has its answer
                # e.g. stop() raced this submit and the scheduler is gone; a
                # refresh failure must never surface to the stale-served
                # client (_admit_locked already cleaned up after itself).
                return
        self.metrics.record_revalidation()
        # The refresh's own outcome is uninteresting (its _finalize already
        # re-put the cache entry); swallow errors so nothing logs as unraised.
        request.future.add_done_callback(lambda done: done.exception())

    def posterior(
        self,
        observation: Dict[str, Any],
        num_traces: Optional[int] = None,
        *,
        seed: Optional[int] = None,
        rng: Optional[RandomState] = None,
        deadline: Optional[float] = None,
        use_cache: bool = True,
        timeout: Optional[float] = None,
    ) -> ServedPosterior:
        """Blocking convenience wrapper around :meth:`submit`."""
        future = self.submit(
            observation, num_traces, seed=seed, rng=rng, deadline=deadline, use_cache=use_cache
        )
        return future.result(timeout=timeout)

    def _attach_to_inflight(
        self, primary: PosteriorRequest, num_traces: int
    ) -> "Future[ServedPosterior]":
        """Resolve this request from an identical in-flight request's result.

        The attached request shares the primary's outcome — its posterior on
        success, its error if the primary is shed or fails.  Like a cache
        hit, this ignores the submitter's seed; pass ``use_cache=False`` to
        pin seed semantics.
        """
        future: "Future[ServedPosterior]" = Future()
        request_id = next(self._request_ids)
        started = time.monotonic()
        self.cache.record_hit()

        def _resolve(done) -> None:
            error = done.exception()
            if error is not None:
                future.set_exception(error)
                return
            latency = time.monotonic() - started
            self.metrics.record_completed(latency, num_traces, cached=True)
            future.set_result(
                ServedPosterior(
                    request_id=request_id,
                    posterior=done.result().posterior,
                    cached=True,
                    latency=latency,
                    num_traces=num_traces,
                )
            )

        primary.future.add_done_callback(_resolve)
        return future

    # ------------------------------------------------------------------ internals
    def _wait_for_executor(self, timeout: float) -> bool:
        """Scheduler hook: block until the (current) pool could start a cohort."""
        return self.workers.wait_for_executor(timeout)

    def _dispatch(self, entries: List[CohortEntry]) -> None:
        """Scheduler flush hook: shard the batch over the free executors and submit."""
        # Occupancy is a property of the flush against the scheduler's cohort
        # capacity; recording per worker shard would cap the observable
        # occupancy at 1/num_workers even at total saturation.
        requests = {entry.request.request_id for entry in entries}
        self.metrics.record_cohort(len(entries), self.scheduler.max_batch, len(requests))
        # Over the executors that are free, not over num_workers: a shard
        # cut for a busy worker would only wait behind it at half the size.
        free = max(1, self.workers.free_executors())
        shards = shard_jobs(entries, free, min_shard_size=self.shard_min)
        for shard in shards:
            if self._resilience is not None and not self._resilience.breaker.allow():
                # allow() is the consuming check: in half-open state exactly
                # one shard per recovery window gets through as the probe.
                self._absorb_failure(
                    shard, BreakerOpen("circuit breaker open: cohort dispatch refused")
                )
                continue
            try:
                self.workers.submit(shard, self._on_cohort_done)
            except BaseException as error:  # noqa: BLE001 - routed to futures
                self._absorb_failure(shard, error)

    def _absorb_failure(self, entries: List[CohortEntry], error: BaseException) -> None:
        """Route a failed shard through resilience (if any), fail the rest."""
        if self._resilience is not None:
            entries = self._resilience.handle_failure(entries, error)
        for entry in entries:
            self._fail_request(entry.request, error)

    def _fail_request(self, request: PosteriorRequest, error: BaseException) -> None:
        """Fail a request; internal (refresh) requests skip the client metric."""
        if request.fail(error) and not request.internal:
            self.metrics.record_failed()
            self._record_capture_outcome(request, "failed", error=error)

    def _make_pool(self, backend: str, num_workers: Optional[int], **process_options):
        """The one place a backend name becomes a cohort pool.

        Both pools take the model/network handles, own the plan cache and
        report every shard's engine counters to ``_merge_engine_stats``;
        ``process_options`` are the process pool's own tuning knobs.
        ``num_workers=None`` is the backend's default.
        """
        if num_workers is None:
            num_workers = _DEFAULT_NUM_WORKERS[backend]
        shared = dict(
            num_workers=num_workers, use_plans=self.use_plans, on_stats=self._merge_engine_stats
        )
        if backend == "process":
            return ProcessCohortPool(self.model, self.network, **shared, **process_options)
        return CohortWorkerPool(self.model, self.network, **shared)

    def _merge_engine_stats(self, stats: Dict[str, int], elapsed: float) -> None:
        """Pool ``on_stats`` hook: fold one shard's engine counters in.

        ``merge_engine_stats`` tolerates keys this service generation does not
        know about — a worker process running newer engine code must not
        KeyError the collector thread.
        """
        self.metrics.record_phase("cohort_execution", elapsed)
        with self._stats_lock:
            merge_engine_stats(self._engine_stats, stats)

    def _on_cohort_done(self, entries: List[CohortEntry], traces, error) -> None:
        """Worker completion hook: route traces (or the failure) to requests."""
        if error is not None:
            self._absorb_failure(list(entries), error)
            return
        if self._resilience is not None:
            self._resilience.record_success()
        completed = []
        for entry, trace in zip(entries, traces):
            if entry.request.deliver(entry.position, trace):
                completed.append(entry.request)
        for request in completed:
            try:
                self._finalize(request)
            except BaseException as finalize_error:  # noqa: BLE001 - to the future
                # fail() also works on a fully-delivered request, so a crash
                # while *forming* the posterior still reaches the client.
                self._fail_request(request, finalize_error)

    def _finalize(self, request: PosteriorRequest) -> None:
        """All traces delivered: form weights, cache, resolve the future.

        The attached ``engine_stats`` is the service-lifetime cumulative
        snapshot (cohorts are shared across requests, so there is no exact
        per-request attribution) — see :class:`ServedPosterior`.
        """
        traces = request.traces()
        log_weights = form_log_weights(traces, self.network)
        posterior = Empirical(
            traces, log_weights, name=f"{self.name}/request-{request.request_id}"
        )
        with self._stats_lock:
            posterior.engine_stats = dict(self._engine_stats)
        # Do not re-pollute a just-invalidated cache: a request admitted under
        # an older network generation computed its posterior from parameters
        # that no longer exist.  The client still gets the result (it asked
        # while that network was live); only the cache write is skipped.
        if request.network_version == getattr(self.network, "version", 0):
            self.cache.put(request.cache_key, posterior.freeze(), model_id=self._model_id)
        latency = time.monotonic() - request.enqueued_at
        result = ServedPosterior(
            request_id=request.request_id,
            posterior=posterior,
            cached=False,
            latency=latency,
            num_traces=request.num_traces,
        )
        if request.complete(result) and not request.internal:
            self.metrics.record_completed(latency, request.num_traces, cached=False)
            if self._capture is not None:
                self._record_capture_outcome(
                    request, "completed", digest=posterior_digest(posterior)
                )

    def _record_capture_outcome(
        self,
        request: PosteriorRequest,
        status: str,
        digest: Optional[str] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        if self._capture is None:
            return
        if request.capture_order is None:
            return
        self._capture.record_outcome(
            request.capture_order,
            status,
            digest=digest,
            error=None if error is None else f"{type(error).__name__}: {error}",
        )

    def _finish(self, request: PosteriorRequest) -> None:
        """Future done-callback: drop the request from the in-flight tables.

        Runs on whichever thread resolved the future (worker, scheduler,
        client submitting ``stop``), for success and failure alike — so no
        failure path can leave a stale ``_inflight_keys`` entry that would
        feed its old error to every later coalesced query.
        """
        key = request.cache_key
        with self._admission_lock:
            # _inflight is written under the admission lock on admit; popping
            # outside it here raced a concurrent admit's dict resize.
            self._inflight.pop(request.request_id, None)
            if key is not None and self._inflight_keys.get(key) is request:
                del self._inflight_keys[key]
        if self._resilience is not None:
            self._resilience.forget(request.request_id)

    def _shed(self, request: PosteriorRequest) -> None:
        """Scheduler shed hook: the request's deadline passed while queued."""
        if request.fail(
            DeadlineExceeded(
                f"request {request.request_id} shed: deadline passed before dispatch"
            )
        ):
            self.metrics.record_shed()
            self._record_capture_outcome(request, "shed")

    # ----------------------------------------------------------------- demotion
    def _demote_to_thread_backend(self) -> None:
        """Swap the process pool for a thread pool in place (crash-storm exit).

        Called by the resilience maintenance thread after ``demote_after``
        breaker openings: repeated worker-process death usually means the
        environment is hostile to subprocesses (fd limits, OOM killer,
        container teardown), and threads — slower under the GIL but sharing
        the parent's fate — keep the service answering.  Outstanding shards
        on the old pool fail with the transient
        :class:`~repro.serving.request.PoolStopped` and are retried onto the
        replacement, so the swap itself sheds nothing.  Results stay
        bit-identical across the swap: every trace's stream key is derived
        in the parent at admission, the same reason backends agree in the
        first place.
        """
        with self._backend_lock:
            if isinstance(self.workers, CohortWorkerPool) or not self._running:
                return
            old = self.workers
            replacement = self._make_pool("thread", self._num_workers).start()
            self.workers = replacement
            self.backend = replacement.backend
            self.demotions += 1
        # Must NOT run on the procpool collector thread (stop joins it); the
        # resilience maintenance thread is the sanctioned caller.
        old.stop(drain=False, timeout=2.0)

    # -------------------------------------------------------------- invalidation
    def invalidate_cache(self) -> int:
        """Drop this service's cached posteriors (returns how many were dropped).

        Called automatically when the served network is retrained in place
        (via the network's update listeners); exposed for callers that mutate
        the model/network outside the training loop.
        """
        return self.cache.invalidate(self._model_id)

    def _on_network_updated(self) -> None:
        self.invalidate_cache()
        # Later cohorts must run on the retrained parameters: the pool drops
        # its compiled plans (threads) or rolls its worker generation
        # (processes, which hold their own network copy).
        self.workers.refresh(self.model, self.network)

    # ----------------------------------------------------------------- reporting
    def stats(self) -> Dict[str, Any]:
        """One snapshot, every number read from the component that counts it.

        ``self.metrics`` holds only what the service itself does; cache
        outcomes come from the cache, ``retries`` and the breaker from the
        resilience layer (``0`` / ``"closed"`` without one), ``demotions``
        from the backend swap, ``faults_injected`` from the active fault
        plan and ``engine`` from the shards' ``on_stats`` blocks.
        """
        snapshot = self.metrics.snapshot()
        cache = self.cache.stats()
        snapshot.update(
            cache_hits=cache["hits"],
            cache_misses=cache["misses"],
            cache_hit_rate=cache["hit_rate"],
            stale_served=cache["stale_hits"],
            retries=0,
            breaker_state="closed",
            breaker_opens=0,
            demotions=self.demotions,
            faults_injected=0,
            backend=self.backend,
            cache=cache,
            scheduler=self.scheduler.stats(),
            workers=self.workers.stats(),
        )
        with self._stats_lock:
            snapshot["engine"] = dict(self._engine_stats)
        plan_cache = self.workers.plan_cache
        if plan_cache is not None:
            snapshot["plans"] = plan_cache.stats()
        if self._resilience is not None:
            resilience = snapshot["resilience"] = self._resilience.stats()
            snapshot["retries"] = resilience["retries_dispatched"]
            snapshot["breaker_state"] = resilience["breaker"]["state"]
            snapshot["breaker_opens"] = resilience["breaker"]["opens"]
        plan = faults.active()
        if plan is not None:
            snapshot["faults_injected"] = plan.total_fired()
            snapshot["faults"] = plan.fired_counts()
        return snapshot

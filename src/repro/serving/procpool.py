"""Process-based cohort execution: persistent workers that sidestep the GIL.

The process side of the cohort-executor contract stated in
:mod:`repro.serving.workers` (construction, submit/callback, ``on_stats``,
plan-cache ownership, ``refresh``, shutdown).  The thread pool shares one
interpreter with the scheduler, the admission path and every model execution,
so once cohort batching amortized the NN forwards the per-trace cost floor
became GIL contention between worker threads (ROADMAP, PR 3).  This module is
the serving counterpart of the paper's MPI sharding: a fixed set of **worker
processes**, each holding its own copy of the model and trained network,
executing pickled :class:`repro.ppl.inference.batched.TraceJob` shards and
returning finished traces plus engine counters to the parent.

Determinism is inherited, not re-derived: every trace job's random stream is
spawned in the parent (:func:`repro.ppl.inference.batched.per_trace_rngs`)
*before* sharding, and :class:`repro.common.rng.RandomState` round-trips
through pickle with its generator state intact — so a shard produces
bit-identical traces whether it runs on the parent, a worker thread, or a
worker process, and seeded posteriors match the thread backend exactly.

Lifecycle and failure semantics:

* ``start_method`` defaults to ``fork`` where available (model/network are
  inherited for free; closures and lambdas work).  Under ``spawn`` the model
  and network handles are pickled into each worker once at start-up — the
  one-time serialization cost the persistent-worker design exists to amortize.
* A worker that dies mid-shard (OOM kill, segfaulting simulator) is detected
  by the collector's liveness sweep; its in-flight shards are **requeued** to
  surviving workers (the dead worker is respawned to restore capacity) up to
  ``max_requeues`` attempts, after which the shard fails loudly with
  :class:`WorkerCrashed` — never silently dropped.
* ``submit`` blocks once ``max_inflight`` shards are outstanding — the same
  backpressure contract as the thread pool
  (:class:`repro.serving.workers.ExecutorSlots`).  The serving scheduler
  never uses that look-ahead: it sizes a cohort only when a worker can start
  it (``wait_for_executor``).
"""

from __future__ import annotations

import itertools
import logging
import multiprocessing
import os
import pickle
import queue
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from repro.ppl.inference.batched import execute_trace_jobs
from repro.ppl.inference.plans import PlanCache
from repro.serving.request import PoolStopped, ServingError
from repro.serving.workers import ExecutorSlots
from repro.testing import faults

logger = logging.getLogger(__name__)

__all__ = ["ProcessCohortPool", "WorkerCrashed"]


class WorkerCrashed(ServingError):
    """A worker process died executing a shard and the requeue budget ran out.

    Transient: the resilience layer (when enabled) retries the shard with
    backoff — a crash storm that outlives the retry budget still surfaces.
    """

    transient = True


def _picklable_error(error: BaseException) -> BaseException:
    """Return ``error`` if it survives pickling, else a ServingError stand-in."""
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        return ServingError(f"{type(error).__name__}: {error}")


def _worker_main(
    worker_index: int,
    task_queue,
    result_queue,
    model,
    network,
    use_plans: bool = False,
    fault_plan=None,
) -> None:
    """Loop of one persistent worker process.

    Messages in: ``(shard_id, [TraceJob, ...])`` or ``None`` (shutdown).
    Messages out: ``(shard_id, worker_index, payload, elapsed, error)`` where
    ``payload`` is the pre-pickled ``(traces, stats)`` pair.  Pre-pickling
    matters: ``multiprocessing.Queue`` serialises in a feeder thread, so an
    unpicklable trace would otherwise vanish asynchronously and strand the
    shard; serialising here surfaces the failure as an explicit error reply.

    With ``use_plans`` each worker process holds its own
    :class:`repro.ppl.inference.plans.PlanCache`: plans carry numpy scratch
    buffers that cannot be shared across processes, and ``refresh()`` replaces
    the worker wholesale on retraining, so a per-process cache never outlives
    the network generation it compiled against.  Plan hit/miss/demotion
    counters travel back inside each shard's engine stats.
    """
    # Under `spawn` the parent's module-global fault plan does not exist in
    # the child; install the pickled copy so child-side fault points fire.
    if fault_plan is not None:
        faults.install(fault_plan)
    plan_cache = PlanCache() if use_plans and network is not None else None
    while True:
        item = task_queue.get()
        if item is None:
            return
        shard_id, jobs = item
        started = time.perf_counter()
        try:
            action = faults.perform("procpool.worker", worker=worker_index, shard=shard_id)
            if action is not None and action.kind == "crash":
                os._exit(1)  # simulate an OOM kill / segfaulting simulator
            traces, stats = execute_trace_jobs(model, jobs, network, plan_cache=plan_cache)
            payload = pickle.dumps((traces, stats))
        except BaseException as error:  # noqa: BLE001 - shipped to the parent
            result_queue.put((shard_id, worker_index, None, 0.0, _picklable_error(error)))
        else:
            result_queue.put((shard_id, worker_index, payload, time.perf_counter() - started, None))


class _Worker:
    """Parent-side record of one worker process and its in-flight shards."""

    def __init__(self, index: int, process, task_queue) -> None:
        self.index = index
        self.process = process
        self.task_queue = task_queue
        self.outstanding: Set[int] = set()


class _Shard:
    """One submitted cohort shard awaiting its result."""

    def __init__(self, entries: Sequence[Any], callback: Callable[..., None]) -> None:
        self.entries = entries
        self.callback = callback
        self.attempts = 1


class ProcessCohortPool:
    """Execute cohort shards on ``num_workers`` persistent worker processes.

    Same contract as :class:`repro.serving.workers.CohortWorkerPool`:
    ``submit(entries, callback)`` (blocking on backpressure),
    ``free_executors()`` / ``wait_for_executor()``,
    ``callback(entries, traces, error)`` on completion, engine counters
    through ``on_stats`` and a ``stop(drain=...)`` lifecycle.  Here
    ``num_workers`` is real parallelism — each worker is its own interpreter
    — at the price of pickling jobs out and traces back.  The shard body
    (:func:`repro.ppl.inference.batched.execute_trace_jobs`) runs in the
    worker process; traces and counters travel back pickled and both hooks
    run on the pool's one collector thread.
    """

    backend = "process"
    #: worker processes own their plan caches; the parent has none to report
    plan_cache = None

    def __init__(
        self,
        model,
        network=None,
        *,
        num_workers: int = 2,
        start_method: Optional[str] = None,
        max_requeues: int = 1,
        max_inflight: Optional[int] = None,
        health_interval: float = 0.05,
        on_stats: Optional[Callable[[Dict[str, int], float], None]] = None,
        use_plans: bool = False,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if max_requeues < 0:
            raise ValueError("max_requeues must be >= 0")
        self.model = model
        self.network = network
        self.num_workers = int(num_workers)
        self.max_requeues = int(max_requeues)
        self.max_inflight = int(max_inflight) if max_inflight is not None else 2 * self.num_workers
        self.health_interval = float(health_interval)
        self.on_stats = on_stats
        self.use_plans = bool(use_plans)
        if start_method is None:
            available = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in available else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self.start_method = start_method
        self._workers: List[_Worker] = []
        #: previous-generation workers (after refresh()) finishing their shards
        self._retiring: List[_Worker] = []
        self._shards: Dict[int, _Shard] = {}
        self._shard_ids = itertools.count()
        self._result_queue = None
        self._collector: Optional[threading.Thread] = None
        self._slots = ExecutorSlots(self.num_workers, capacity=self.max_inflight)
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._started = False
        self._closing = False
        self._stop_collector = threading.Event()
        self.shards_executed = 0
        self.failed_shards = 0
        self.requeues = 0
        self.worker_crashes = 0

    # ----------------------------------------------------------------- lifecycle
    def start(self) -> "ProcessCohortPool":
        if self._started:
            raise RuntimeError("process pool already started")
        # Reset the stop-time state so a stopped pool can be restarted
        # (symmetric with the thread pool).
        self._closing = False
        self._stop_collector = threading.Event()
        self._slots.open()
        self._result_queue = self._ctx.Queue()
        with self._lock:
            # A collector from a previous stop() that outlived its join
            # timeout may still touch _workers/_retiring; swap them under
            # the same lock every other writer uses.
            self._retiring = []
            self._workers = [self._spawn_worker(index) for index in range(self.num_workers)]
        self._collector = threading.Thread(
            target=self._collect, name="procpool-collector", daemon=True
        )
        self._collector.start()
        self._started = True
        return self

    def refresh(self, model=None, network=None) -> None:
        """Swap updated model/network handles into the worker generation.

        Worker processes hold their own copy of the model and network, so an
        in-place retraining in the parent would otherwise keep being served
        from the *old* parameters.  ``refresh`` spawns a fresh worker for
        every slot (the new processes copy the current state); old workers
        with shards still in flight finish them on the old parameters — the
        same mid-flight semantics as the thread backend — and exit once
        drained, while idle old workers exit immediately.
        """
        with self._lock:
            if model is not None:
                self.model = model
            if network is not None:
                self.network = network
            if not self._started or self._closing:
                return
            for slot, worker in enumerate(self._workers):
                self._workers[slot] = self._spawn_worker(worker.index)
                if worker.outstanding:
                    self._retiring.append(worker)
                else:
                    self._dismiss_worker(worker)

    def _dismiss_worker(self, worker: _Worker) -> None:
        try:
            worker.task_queue.put(None)
        except Exception:
            worker.process.terminate()

    def _spawn_worker(self, index: int) -> _Worker:
        task_queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                index,
                task_queue,
                self._result_queue,
                self.model,
                self.network,
                self.use_plans,
                faults.active(),
            ),
            name=f"cohort-proc-{index}",
            daemon=True,
        )
        process.start()
        return _Worker(index, process, task_queue)

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the pool; ``drain`` waits for in-flight shards to finish first.

        With ``drain=False`` every outstanding shard's callback receives a
        :class:`ServingError` immediately and the worker processes are
        terminated — nothing is left hanging on a future.
        """
        if not self._started:
            return
        self._closing = True
        self._slots.close()  # a submit blocked on backpressure refuses now
        if drain:
            deadline = None if timeout is None else time.monotonic() + timeout
            with self._idle:
                while self._shards:
                    remaining = None if deadline is None else max(deadline - time.monotonic(), 0.01)
                    if not self._idle.wait(timeout=remaining if remaining is not None else 1.0):
                        if deadline is not None and time.monotonic() >= deadline:
                            break
        else:
            with self._lock:
                dropped = list(self._shards.values())
                self._shards.clear()
                for worker in self._workers:
                    worker.outstanding.clear()
            for shard in dropped:
                self._safe_callback(shard, None, PoolStopped("worker pool stopped"))
                self._slots.give_back()
        self._stop_collector.set()
        if self._collector is not None:
            self._collector.join(timeout=5.0)
            if self._collector.is_alive():
                # Escalate loudly rather than return with a live collector: a
                # worker wedged mid-result (or a hung queue feeder) is the only
                # thing that can hold the collector past its drain check, so
                # terminate every worker process to break the blockage, log
                # the stuck state for the postmortem, and give the collector
                # one more chance to observe the carnage and exit.
                with self._lock:
                    stuck_shards = sorted(self._shards)
                    workers = list(self._workers) + list(self._retiring)
                logger.error(
                    "procpool collector failed its 5s join at stop "
                    "(outstanding shards: %s; workers alive: %s); "
                    "terminating worker processes",
                    stuck_shards or "none",
                    [w.index for w in workers if w.process.is_alive()] or "none",
                )
                for worker in workers:
                    if worker.process.is_alive():
                        worker.process.terminate()
                self._collector.join(timeout=1.0)
                if self._collector.is_alive():
                    logger.error(
                        "procpool collector is still alive after worker "
                        "termination; abandoning it (daemon thread)"
                    )
        # A submit that was blocked on backpressure may have registered a
        # shard after the cancel sweep above; fail it rather than leave its
        # callback unfired (the no-abandoned-futures guarantee).
        with self._lock:
            leftovers = list(self._shards.values())
            self._shards.clear()
            workers = list(self._workers) + list(self._retiring)
            self._retiring = []
            for worker in workers:
                worker.outstanding.clear()
        for shard in leftovers:
            self._safe_callback(shard, None, PoolStopped("worker pool stopped"))
            self._slots.give_back()
        for worker in workers:
            try:
                worker.task_queue.put(None)
            except Exception:
                pass
        join_timeout = 2.0 if drain else 0.2
        for worker in workers:
            worker.process.join(timeout=join_timeout)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
        self._started = False

    def __enter__(self) -> "ProcessCohortPool":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------ dispatch
    def submit(self, entries: Sequence[Any], callback: Callable[..., None]) -> None:
        """Ship one cohort shard to a worker (blocks on backpressure).

        ``entries`` may be scheduler :class:`CohortEntry` rows or bare
        :class:`TraceJob` objects; only the jobs cross the process boundary —
        request routing state (futures, locks) stays in the parent and is
        rejoined by shard id when the result returns.
        """
        # claim() refuses once stop() has closed the slots, so a submit that
        # was blocked on backpressure never registers a shard no collector
        # will resolve.
        if not self._started or self._closing or not self._slots.claim():
            raise PoolStopped("process pool is not running")
        jobs = [getattr(entry, "job", entry) for entry in entries]
        with self._lock:
            shard_id = next(self._shard_ids)
            self._shards[shard_id] = _Shard(entries, callback)
            worker = self._pick_worker()
            worker.outstanding.add(shard_id)
        worker.task_queue.put((shard_id, jobs))
        # Chaos hook: "worker crash at shard N" — SIGKILL the worker this
        # shard was just dispatched to.  The collector's liveness sweep then
        # requeues (or fails) its outstanding shards exactly as a real OOM
        # kill would.  Zero-cost when no fault plan is installed.
        action = faults.fault_point("procpool.dispatch", shard=shard_id, worker=worker.index)
        if action is not None and action.kind == "crash":
            try:
                worker.process.kill()
            except Exception:
                pass

    def free_executors(self) -> int:
        """How many shards would start at once (workers with none outstanding)."""
        return self._slots.free

    def wait_for_executor(self, timeout: Optional[float] = None) -> bool:
        """Block until an executor is free; ``False`` on timeout."""
        return self._slots.wait(timeout)

    def _pick_worker(self) -> _Worker:
        """Least-loaded live worker (respawning any found dead while idle)."""
        for slot, worker in enumerate(self._workers):
            if not worker.process.is_alive() and not worker.outstanding:
                self.worker_crashes += 1
                self._workers[slot] = self._spawn_worker(worker.index)
        return min(self._workers, key=lambda worker: len(worker.outstanding))

    # ----------------------------------------------------------------- collector
    def _collect(self) -> None:
        """Parent-side loop: join results to shards; sweep for dead workers.

        The collector is the pool's only joiner, so it must survive anything
        the result queue throws at it: a worker SIGKILLed mid-write can
        surface as EOFError/OSError/UnpicklingError rather than Empty, and a
        dead collector would strand every outstanding shard.  Any such error
        is treated like an empty poll — the liveness sweep then requeues the
        affected worker's shards.
        """
        while True:
            try:
                message = self._result_queue.get(timeout=self.health_interval)
            except queue.Empty:
                message = None
            except Exception:
                message = None
            if message is None:
                if self._stop_collector.is_set():
                    with self._lock:
                        done = not self._shards
                    if done:
                        return
                self._check_workers()
                continue
            try:
                self._handle_result(message)
            except Exception:
                pass  # a malformed message must not kill the collector

    def _handle_result(self, message) -> None:
        shard_id, worker_index, payload, elapsed, error = message
        with self._lock:
            shard = self._shards.pop(shard_id, None)
            for worker in self._workers:
                worker.outstanding.discard(shard_id)
            for worker in list(self._retiring):
                worker.outstanding.discard(shard_id)
                if not worker.outstanding:
                    # A refresh()-retired worker has drained: let it exit.
                    self._retiring.remove(worker)
                    self._dismiss_worker(worker)
            if shard is None:
                return  # stale duplicate of a requeued shard: first result won
        if error is not None:
            self.failed_shards += 1
            self._safe_callback(shard, None, error)
        else:
            try:
                traces, stats = pickle.loads(payload)
            except BaseException as unpickle_error:  # noqa: BLE001 - to the callback
                self.failed_shards += 1
                self._safe_callback(shard, None, unpickle_error)
            else:
                self.shards_executed += 1
                if self.on_stats is not None:
                    try:
                        self.on_stats(stats, elapsed)
                    except Exception:
                        pass
                self._safe_callback(shard, traces, None)
        self._slots.give_back()
        with self._idle:
            if not self._shards:
                self._idle.notify_all()

    def _check_workers(self) -> None:
        """Requeue (or fail) the shards of any worker process found dead."""
        with self._lock:
            crashed = [
                (slot, worker)
                for slot, worker in enumerate(self._workers)
                if worker.outstanding and not worker.process.is_alive()
            ] + [
                (None, worker)
                for worker in self._retiring
                if not worker.process.is_alive()
            ]
        if not crashed:
            return
        # Drain already-delivered results first so a shard the dead worker
        # finished before dying is completed, not re-run.
        while True:
            try:
                self._handle_result(self._result_queue.get_nowait())
            except queue.Empty:
                break
            except Exception:
                break  # torn write from the dying worker: fall through to requeue
        for slot, worker in crashed:
            with self._lock:
                if slot is not None:
                    if self._workers[slot] is not worker:
                        continue
                    self._workers[slot] = self._spawn_worker(worker.index)
                elif worker in self._retiring:
                    self._retiring.remove(worker)
                else:
                    continue
                orphaned = sorted(worker.outstanding)
                worker.outstanding.clear()
                if not orphaned:
                    continue
                self.worker_crashes += 1
                exitcode = worker.process.exitcode
            for shard_id in orphaned:
                self._redispatch(shard_id, exitcode)

    def _redispatch(self, shard_id: int, exitcode) -> None:
        with self._lock:
            shard = self._shards.get(shard_id)
            if shard is None:
                return
            if shard.attempts > self.max_requeues:
                del self._shards[shard_id]
                failed = shard
            else:
                shard.attempts += 1
                self.requeues += 1
                # _pick_worker respawns any idle-dead worker first, so a
                # requeued shard never lands on a queue nobody reads.
                worker = self._pick_worker()
                worker.outstanding.add(shard_id)
                failed = None
        if failed is not None:
            self.failed_shards += 1
            self._safe_callback(
                failed,
                None,
                WorkerCrashed(
                    f"worker process died (exitcode {exitcode}) executing shard "
                    f"{shard_id} and the requeue budget ({self.max_requeues}) is spent"
                ),
            )
            self._slots.give_back()
            with self._idle:
                if not self._shards:
                    self._idle.notify_all()
        else:
            jobs = [getattr(entry, "job", entry) for entry in shard.entries]
            worker.task_queue.put((shard_id, jobs))

    # -------------------------------------------------------------- health probe
    def probe(self) -> Dict[str, int]:
        """Liveness sweep for the resilience maintenance thread.

        Counts live/dead workers and respawns any worker found dead while
        *idle* (the collector's own sweep only watches workers with shards
        outstanding, so an idle crash would otherwise go unnoticed until the
        next dispatch picks the corpse).  Busy dead workers are left to the
        collector, which owns the requeue path.
        """
        live = dead = respawned = 0
        with self._lock:
            if not self._started or self._closing:
                return {"live": 0, "dead": 0, "respawned": 0}
            for slot, worker in enumerate(self._workers):
                if worker.process.is_alive():
                    live += 1
                    continue
                dead += 1
                if not worker.outstanding:
                    self.worker_crashes += 1
                    self._workers[slot] = self._spawn_worker(worker.index)
                    respawned += 1
        return {"live": live, "dead": dead, "respawned": respawned}

    # ------------------------------------------------------------------- helpers
    def _safe_callback(self, shard: _Shard, traces, error) -> None:
        try:
            shard.callback(shard.entries, traces, error)
        except Exception:
            pass  # a callback crash must not kill the collector thread

    # --------------------------------------------------------------------- stats
    def stats(self) -> Dict[str, Any]:
        with self._lock:
            inflight = len(self._shards)
        return {
            "backend": self.backend,
            "num_workers": self.num_workers,
            "start_method": self.start_method,
            "shards_executed": self.shards_executed,
            "failed_shards": self.failed_shards,
            "requeues": self.requeues,
            "worker_crashes": self.worker_crashes,
            "inflight_shards": inflight,
            "free_executors": self._slots.free,
        }

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

Determinism is shipped, not re-derived: every trace job carries its stream
key, derived in the parent (:func:`repro.ppl.inference.batched.request_key`)
*before* sharding, and the worker builds each generator from its key — so a
shard is observations plus a few ints on the wire, produces bit-identical
traces whether it runs on the parent, a worker thread, or a worker process,
and a retried shard simply runs again from the same keys.

Lifecycle and failure semantics:

* Workers are forked (model, network and the active fault plan are
  inherited for free; closures and lambdas work).  A process that cannot
  fork (:func:`repro.common.utils.can_fork`) cannot build this pool: there a
  ``backend="process"`` service serves on threads.
* Worker ``i`` pins itself to core ``i % len(cores)`` of the affinity mask it
  inherited, before it runs anything: a cohort's driver and slot threads
  hand control back and forth, and floating over every core costs them a
  cross-core wake-up per hand-off.  A respawned or refreshed worker keeps its
  index and so its core; a one-core mask puts every worker on that core; a
  platform without ``os.sched_setaffinity`` does not pin.
* **One pipe per worker, one shard per worker.**  Each worker is a
  :class:`repro.common.utils.ForkedChild`, a daemon child on one duplex pipe:
  a shard goes out on it as ``(shard_id, jobs)`` and its answer comes back on
  it.  A worker holds at most one shard; shards beyond the idle workers wait
  in one parent-side queue and go to the lowest-index idle worker.  One
  collector thread owns every pipe end: it blocks in
  :func:`multiprocessing.connection.wait` on the workers' ends plus a wake-up
  pipe, reads every reply, and sends a shard only to an idle worker — one
  that has answered and is reading — so a send can never deadlock against a
  full result pipe.
* **A death is end-of-file.**  A worker that dies (OOM kill, segfaulting
  simulator) takes its end of the pipe with it: the collector reads whatever
  it answered first, then end-of-file (:class:`repro.common.utils.ChildLost`)
  — the only death signal, seen the moment it happens, busy or idle, under
  any traffic.  The worker is respawned under its index, and its shard fails
  once, at once, with the transient :class:`WorkerCrashed` — the thread
  pool's contract for a failed shard.  The pool never re-runs a shard:
  retries belong to the service's resilience layer
  (:class:`repro.serving.resilience.ServiceResilience`), per request, with
  backoff and within the request's deadline.  A worker
  dismissed by ``refresh`` or ``stop`` did not crash.
* ``submit`` blocks once ``2 * num_workers`` shards are outstanding — the
  same backpressure contract as the thread pool
  (:class:`repro.serving.workers.ExecutorSlots`).  The serving scheduler
  never uses that look-ahead: it sizes a cohort only when a worker can start
  it (``wait_for_executor``).
"""

from __future__ import annotations

import collections
import itertools
import logging
import os
import pickle
import threading
import time
from multiprocessing.connection import wait
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

from repro.common.utils import ChildLost, ForkedChild, can_fork, close_parent_ends, parent_pipe, usable_cores
from repro.ppl.inference.batched import execute_trace_jobs
from repro.ppl.inference.plans import PlanCache
from repro.serving.request import PoolStopped, ServingError
from repro.serving.workers import ExecutorSlots
from repro.testing import faults

logger = logging.getLogger(__name__)

__all__ = ["ProcessCohortPool", "WorkerCrashed"]


class WorkerCrashed(ServingError):
    """A worker process died executing a shard.

    Transient: the resilience layer (when enabled) retries the shard's
    requests with backoff — a crash storm that outlives the retry budget
    still surfaces.
    """

    transient = True


def _picklable_error(error: BaseException) -> BaseException:
    """Return ``error`` if it survives pickling, else a ServingError stand-in."""
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        return ServingError(f"{type(error).__name__}: {error}")


def _worker_main(connection, worker_index: int, model, network, use_plans: bool) -> None:
    """Loop of one persistent worker process.

    The worker first pins itself to core ``worker_index % len(cores)`` of the
    affinity mask it inherited (:func:`repro.common.utils.usable_cores`; the
    module docstring says why).

    Messages in: ``(shard_id, [TraceJob, ...])``; end-of-file dismisses the
    worker.  Message out, one per shard: ``(traces, stats, elapsed, error)``.  ``send`` pickles the whole reply before it writes a
    byte, so traces that do not pickle go back as an error reply instead.

    With ``use_plans`` each worker process holds its own
    :class:`repro.ppl.inference.plans.PlanCache`: plans carry numpy scratch
    buffers that cannot be shared across processes, and ``refresh()`` replaces
    the worker wholesale on retraining, so a per-process cache never outlives
    the network generation it compiled against.  Plan hit/miss/demotion
    counters travel back inside each shard's engine stats.
    """
    usable_cores(pin=worker_index)
    plan_cache = PlanCache() if use_plans and network is not None else None
    while True:
        try:
            item = connection.recv()
        except (EOFError, OSError):
            return
        shard_id, jobs = item
        started = time.perf_counter()
        try:
            action = faults.perform("procpool.worker", worker=worker_index, shard=shard_id)
            if action is not None and action.kind == "crash":
                os._exit(1)  # simulate an OOM kill / segfaulting simulator
            traces, stats = execute_trace_jobs(model, jobs, network, plan_cache=plan_cache)
            reply = (traces, stats, time.perf_counter() - started, None)
        except BaseException as error:  # noqa: BLE001 - shipped to the parent
            reply = (None, None, 0.0, _picklable_error(error))
        try:
            connection.send(reply)
        except OSError:
            return  # the pool let go of this worker
        except Exception as error:  # the traces do not pickle
            connection.send((None, None, 0.0, _picklable_error(error)))


class _Worker:
    """Parent-side record of one worker process: the pipe to it and its shard."""

    def __init__(self, index: int, pipe: ForkedChild) -> None:
        self.index = index
        self.pipe = pipe
        self.shard: Optional[int] = None


class _Shard:
    """One submitted cohort shard awaiting its result."""

    def __init__(self, entries: Sequence[Any], callback: Callable[..., None]) -> None:
        self.entries = entries
        # Only the jobs cross the process boundary: request routing state
        # (futures, locks) stays here and is rejoined by shard id.
        self.jobs = [getattr(entry, "job", entry) for entry in entries]
        self.callback = callback


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
        on_stats: Optional[Callable[[Dict[str, int], float], None]] = None,
        use_plans: bool = False,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if not can_fork():
            raise RuntimeError("ProcessCohortPool forks its workers, and this process cannot fork")
        self.model = model
        self.network = network
        self.num_workers = int(num_workers)
        self.on_stats = on_stats
        self.use_plans = bool(use_plans)
        #: the current generation, by worker index
        self._workers: List[_Worker] = []
        #: previous-generation workers (after refresh()) finishing their shards
        self._retiring: List[_Worker] = []
        self._shards: Dict[int, _Shard] = {}
        #: shards waiting for an idle worker, oldest first
        self._backlog: Deque[int] = collections.deque()
        self._shard_ids = itertools.count()
        self._wake_reader = self._wake_writer = None
        self._collector: Optional[threading.Thread] = None
        self._slots = ExecutorSlots(self.num_workers, capacity=2 * self.num_workers)
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._started = False
        self._closing = False
        self._stopping = False
        self.shards_executed = 0
        self.failed_shards = 0
        self.worker_crashes = 0

    # ----------------------------------------------------------------- lifecycle
    def start(self) -> "ProcessCohortPool":
        if self._started:
            raise RuntimeError("process pool already started")
        self._slots.open()
        self._wake_reader, self._wake_writer = parent_pipe()
        with self._lock:
            self._closing = self._stopping = False
            self._workers = []
            for index in range(self.num_workers):
                self._workers.append(self._spawn_worker(index))
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
        every index (the new processes copy the current state); old workers
        with a shard in flight finish it on the old parameters — the same
        mid-flight semantics as the thread backend — and are dismissed once
        it is answered, idle old workers at once.
        """
        with self._lock:
            if model is not None:
                self.model = model
            if network is not None:
                self.network = network
            if not self._started or self._closing:
                return
            self._retiring.extend(self._workers)
            self._workers = []
            for index in range(self.num_workers):
                self._workers.append(self._spawn_worker(index))
            self._wake()

    def _spawn_worker(self, index: int) -> _Worker:
        """Start worker ``index`` (lock held)."""
        pipe = ForkedChild(
            _worker_main, (index, self.model, self.network, self.use_plans), name=f"cohort-proc-{index}"
        )
        return _Worker(index, pipe)

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the pool; ``drain`` waits for in-flight shards to finish first.

        With ``drain=False`` every outstanding shard's callback receives a
        :class:`PoolStopped` immediately and the worker processes are
        terminated — nothing is left hanging on a future.
        """
        if not self._started:
            return
        with self._lock:
            self._closing = True  # submit refuses from here on
        self._slots.close()  # and so does a submit blocked on backpressure
        if drain:
            with self._idle:
                self._idle.wait_for(lambda: not self._shards, timeout)
        with self._lock:
            self._stopping = True
            self._wake()
        self._collector.join(timeout=5.0)
        with self._lock:
            workers = self._workers + self._retiring
        if self._collector.is_alive():
            # Only a callback or a send that never returns can hold the
            # collector: say so, and break any send by ending the workers.
            logger.error(
                "procpool collector failed its 5s join at stop (outstanding shards: %s); "
                "killing worker processes",
                sorted(self._shards) or "none",
            )
            for worker in workers:
                worker.pipe.process.kill()
            self._collector.join(timeout=1.0)
        # Whatever drain did not finish (or drain=False) fails here: the
        # no-abandoned-futures guarantee.
        with self._lock:
            leftovers = list(self._shards.values())
            self._shards.clear()
            self._backlog.clear()
            self._retiring = []
        for shard in leftovers:
            self._resolve(shard, None, PoolStopped("worker pool stopped"))
        for worker in workers:
            worker.pipe.join(ForkedChild.GRACE_SECONDS if drain else 0.2)
        close_parent_ends(self._wake_reader, self._wake_writer)
        self._started = False

    def __enter__(self) -> "ProcessCohortPool":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------ dispatch
    def submit(self, entries: Sequence[Any], callback: Callable[..., None]) -> None:
        """Queue one cohort shard for the next idle worker (blocks on backpressure).

        ``entries`` may be scheduler :class:`CohortEntry` rows or bare
        :class:`TraceJob` objects; only the jobs cross the process boundary.
        """
        if self._started and self._slots.claim():
            with self._lock:
                if not self._closing:
                    shard_id = next(self._shard_ids)
                    self._shards[shard_id] = _Shard(entries, callback)
                    self._backlog.append(shard_id)
                    self._wake()
                    return
            self._slots.give_back()
        raise PoolStopped("process pool is not running")

    def free_executors(self) -> int:
        """How many shards would start at once (workers with none outstanding)."""
        return self._slots.free

    def wait_for_executor(self, timeout: Optional[float] = None) -> bool:
        """Block until an executor is free; ``False`` on timeout."""
        return self._slots.wait(timeout)

    def _wake(self) -> None:
        """Make the collector look again (lock held)."""
        self._wake_writer.send_bytes(b"")

    # ----------------------------------------------------------------- collector
    def _collect(self) -> None:
        """The pool's one pipe owner: send queued shards, read replies and deaths."""
        while True:
            with self._lock:
                if self._stopping:
                    return
                for worker in [worker for worker in self._retiring if worker.shard is None]:
                    self._retiring.remove(worker)
                    worker.pipe.close()  # it leaves at its end-of-file
                sends = []
                for worker in self._workers:
                    if self._backlog and worker.shard is None:
                        worker.shard = self._backlog.popleft()
                        sends.append(worker)
                pipes = {worker.pipe: worker for worker in self._workers + self._retiring}
            for worker in sends:
                self._send(worker)
            for ready in wait([self._wake_reader, *pipes]):
                if ready is self._wake_reader:
                    while ready.poll():
                        ready.recv_bytes()
                    continue
                try:
                    reply = ready.recv()
                except ChildLost:
                    self._lost(pipes[ready])
                    continue
                except Exception as error:  # noqa: BLE001 - a reply that does not unpickle
                    reply = (None, None, 0.0, error)
                self._answered(pipes[ready], *reply)

    def _send(self, worker: _Worker) -> None:
        """Ship ``worker`` the shard it was just given."""
        shard_id = worker.shard
        try:
            worker.pipe.send((shard_id, self._shards[shard_id].jobs))
        except ChildLost:
            return  # it died: its end-of-file fails the shard
        except Exception as error:  # noqa: BLE001 - jobs that do not pickle
            self._answered(worker, None, None, 0.0, error)
            return
        # Chaos hook: "worker crash at shard N" — SIGKILL the worker this
        # shard was just sent to; its end-of-file then fails the shard
        # exactly as a real OOM kill would.  Zero-cost when no fault plan is
        # installed.
        action = faults.fault_point("procpool.dispatch", shard=shard_id, worker=worker.index)
        if action is not None and action.kind == "crash":
            worker.pipe.process.kill()

    def _answered(self, worker: _Worker, traces, stats, elapsed: float, error) -> None:
        """``worker`` answered its shard: it is idle again, the shard resolves."""
        with self._lock:
            shard = self._shards.pop(worker.shard, None)
            worker.shard = None
        if shard is None:
            return  # stop(drain=False) already failed it
        if error is not None:
            self.failed_shards += 1
        else:
            self.shards_executed += 1
            if self.on_stats is not None:
                try:
                    self.on_stats(stats, elapsed)
                except Exception:
                    pass
        self._resolve(shard, traces, error)

    def _lost(self, worker: _Worker) -> None:
        """End-of-file on ``worker``'s pipe: respawn it; fail its shard."""
        exitcode = worker.pipe.join()
        with self._lock:
            self.worker_crashes += 1
            if worker in self._retiring:
                self._retiring.remove(worker)
            else:
                self._workers[worker.index] = self._spawn_worker(worker.index)
            shard = self._shards.pop(worker.shard, None)
        if shard is not None:
            self.failed_shards += 1
            self._resolve(
                shard,
                None,
                WorkerCrashed(
                    f"worker process died (exitcode {exitcode}) "
                    f"executing shard {worker.shard}"
                ),
            )

    def _resolve(self, shard: _Shard, traces, error) -> None:
        """Fire ``shard``'s one callback, then free its executor slot."""
        try:
            shard.callback(shard.entries, traces, error)
        except Exception:
            pass  # a callback crash must not kill the collector thread
        self._slots.give_back()
        with self._idle:
            if not self._shards:
                self._idle.notify_all()

    # --------------------------------------------------------------------- stats
    def stats(self) -> Dict[str, Any]:
        with self._lock:
            inflight = len(self._shards)
        return {
            "backend": self.backend,
            "num_workers": self.num_workers,
            "shards_executed": self.shards_executed,
            "failed_shards": self.failed_shards,
            "worker_crashes": self.worker_crashes,
            "inflight_shards": inflight,
            "free_executors": self._slots.free,
        }

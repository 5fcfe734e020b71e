"""Cohort worker pool: the thread side of the one cohort-executor contract.

A *shard* is a list of :class:`repro.ppl.inference.batched.TraceJob` (or
scheduler entries carrying one as ``.job``).  Every job carries a stream key
derived in the parent before sharding, so shards are independent
importance-sampling streams: wherever and however often one runs, it runs
:func:`repro.ppl.inference.batched.execute_trace_jobs` and produces the same
traces.  "Where" is one of two pools with one contract —
:class:`CohortWorkerPool` (threads, this module) and
:class:`repro.serving.procpool.ProcessCohortPool` (persistent processes):

* **Construction** — ``Pool(model, network, *, num_workers, use_plans,
  on_stats)``.  The pool, not its caller, holds the model and network handles
  its workers execute against.
* **Submit and collect** — ``submit(entries, callback)`` blocks while the
  pool is saturated (the backpressure that stalls a direct caller such as
  the distributed driver) and raises
  :class:`~repro.serving.request.PoolStopped` on a pool that is not running.
  ``callback(entries, traces, error)`` fires exactly once per accepted shard,
  on a pool thread, with exactly one of ``traces``/``error`` set.
* **Free executors** — ``free_executors()`` says how many shards would start
  at once rather than queue behind a busy worker, and
  ``wait_for_executor(timeout)`` blocks until that is at least one.  The
  serving scheduler waits there *before* it sizes a cohort, so work that
  arrives while every executor is busy coalesces in the scheduler instead of
  sitting, already cut to size, in a pool's look-ahead.
* **Counters** — a shard's engine counters reach the pool's owner through
  ``on_stats(stats, elapsed_seconds)``, called before that shard's callback.
* **Plans** — with ``use_plans`` the pool owns the compiled-plan cache: the
  thread pool shares one :class:`~repro.ppl.inference.plans.PlanCache` across
  its workers (``pool.plan_cache``); each worker process builds its own,
  because plans hold numpy scratch that cannot cross a process boundary
  (``pool.plan_cache`` is ``None`` there).  On both, plan hits, misses,
  divergences and demotions are counted only in the engine stats.
* **Retraining** — ``refresh(model, network)`` makes later shards run on the
  current parameters: the thread pool swaps its handles and drops every
  compiled plan; the process pool rolls a new worker generation.
* **Shutdown** — ``stop(drain=True)`` finishes accepted shards first;
  ``stop(drain=False)`` resolves every shard not yet running with
  ``PoolStopped``, so no accepted shard is ever abandoned.  A stopped pool
  can be started again.

The worker threads are daemonic only as a last-resort safety net — the
supported path is an explicit ``stop()`` (or the context manager), which the
service drives from its own ``stop``.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.ppl.inference.batched import execute_trace_jobs
from repro.ppl.inference.plans import PlanCache
from repro.serving.request import PoolStopped
from repro.testing import faults

__all__ = ["CohortWorkerPool"]

_SENTINEL = object()


class ExecutorSlots:
    """A pool's shards in flight, against its executors and its capacity.

    The one counter behind both uses.  ``submit`` claims a slot, blocking
    while ``capacity`` shards are in flight (``capacity - executors`` is the
    pool's look-ahead: shards a direct caller may park behind busy workers);
    the pool gives the slot back once the shard's callback has returned.  An
    executor is *free* while fewer than ``executors`` shards are in flight —
    the scheduler's flush thread waits here for that before it builds a
    cohort, so a served cohort never enters the look-ahead.  Shut until
    :meth:`open`; after :meth:`close` nobody waits — ``claim`` refuses and
    ``wait`` returns at once, so callers reach the pool's loud
    ``PoolStopped`` instead of sleeping on a dead pool.
    """

    def __init__(self, executors: int, capacity: int) -> None:
        self.executors = executors
        self.capacity = max(capacity, 1)
        self._inflight = 0
        self._open = False
        self._cond = threading.Condition()

    def open(self) -> None:
        with self._cond:
            self._inflight = 0
            self._open = True
            self._cond.notify_all()

    def close(self) -> None:
        with self._cond:
            self._open = False
            self._cond.notify_all()

    def claim(self) -> bool:
        """Take one slot, waiting for it; ``False`` when the pool closed meanwhile."""
        with self._cond:
            while self._open and self._inflight >= self.capacity:
                self._cond.wait()
            if not self._open:
                return False
            self._inflight += 1
            return True

    def give_back(self) -> None:
        with self._cond:
            self._inflight = max(self._inflight - 1, 0)
            self._cond.notify_all()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until an executor is free; ``False`` when ``timeout`` ran out first."""
        with self._cond:
            return self._cond.wait_for(
                lambda: self._inflight < self.executors or not self._open, timeout
            )

    @property
    def free(self) -> int:
        with self._cond:
            return max(self.executors - self._inflight, 0) if self._open else 0


class CohortWorkerPool:
    """Execute cohort shards on ``num_workers`` threads of this process.

    ``submit`` accepts ``2 * num_workers`` shards beyond the ones running and
    blocks after that.  The threads share one interpreter lock,
    so ``num_workers`` is how many cohorts *interleave*, not how many run at
    once — worth more than 1 only when the model releases the GIL (a remote
    or native simulator); pure-Python models run fastest on one worker with
    the largest cohorts the scheduler can form.  Workers share the caller's
    model and network objects, so an in-place retraining is visible to the
    next shard without a copy.
    """

    backend = "thread"

    def __init__(
        self,
        model,
        network=None,
        *,
        num_workers: int = 2,
        use_plans: bool = False,
        on_stats: Optional[Callable[[Dict[str, int], float], None]] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.model = model
        self.network = network
        self.num_workers = int(num_workers)
        self.on_stats = on_stats
        #: one cache for every worker (its own lock makes it thread-safe)
        self.plan_cache = PlanCache() if use_plans and network is not None else None
        self._queue: "queue.SimpleQueue[Any]" = queue.SimpleQueue()
        self._slots = ExecutorSlots(self.num_workers, capacity=3 * self.num_workers)
        self._threads: List[threading.Thread] = []
        self._started = False
        # Counters are bumped from every worker thread concurrently; a bare
        # `+= 1` is a read-modify-write that loses updates under the GIL's
        # bytecode-level interleaving.  The same lock orders a submit's
        # enqueue against stop's flag flip, so no shard lands behind the
        # stop sentinels.
        self._stats_lock = threading.Lock()
        self.shards_executed = 0
        self.failed_shards = 0
        self.cancelled_shards = 0

    # ----------------------------------------------------------------- lifecycle
    def start(self) -> "CohortWorkerPool":
        with self._stats_lock:
            if self._started:
                raise RuntimeError("worker pool already started")
            self._started = True
        self._slots.open()
        self._threads = [
            threading.Thread(target=self._run, name=f"cohort-worker-{index}", daemon=True)
            for index in range(self.num_workers)
        ]
        for thread in self._threads:
            thread.start()
        return self

    def refresh(self, model=None, network=None) -> None:
        """Follow a retraining: swap the handles, drop every compiled plan.

        Plans bake network parameters (address-embedding rows) and a network
        version into their buffers; dropping them eagerly beats waiting for
        the next lease's version check.  Shards already running finish on
        whatever they read — the same mid-flight semantics as the process
        pool's retiring workers.
        """
        if model is not None:
            self.model = model
        if network is not None:
            self.network = network
        if self.plan_cache is not None:
            self.plan_cache.invalidate()

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop every worker; ``drain`` finishes queued shards first.

        With ``drain=False`` queued (not yet running) shards are cancelled:
        each one's callback receives :class:`PoolStopped` so the owning
        requests resolve instead of hanging on futures forever.
        """
        if not self._started:
            return
        with self._stats_lock:
            self._started = False  # submit() refuses from here on
        self._slots.close()
        if not drain:
            self._cancel_queued()
        for _ in self._threads:
            self._queue.put(_SENTINEL)
        # drain=False must not block forever behind a stuck in-flight cohort:
        # bound the join so the caller's own cleanup (e.g. the service failing
        # in-flight futures) still runs; the daemon flag reaps the straggler.
        join_timeout = timeout if timeout is not None else (None if drain else 2.0)
        for thread in self._threads:
            thread.join(timeout=join_timeout)

    def __enter__(self) -> "CohortWorkerPool":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _cancel_queued(self) -> None:
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is _SENTINEL:
                continue
            entries, callback = item
            with self._stats_lock:
                self.cancelled_shards += 1
            try:
                callback(entries, None, PoolStopped("worker pool stopped"))
            except Exception:
                pass

    # ------------------------------------------------------------------ dispatch
    def submit(self, entries: Sequence[Any], callback: Callable[..., None]) -> None:
        """Enqueue one shard (blocks while the pool is saturated — backpressure).

        ``entries`` may be scheduler :class:`CohortEntry` rows or bare
        :class:`TraceJob` objects; the callback gets them back unchanged.
        """
        if self._slots.claim():  # refuses on a pool that is not running
            with self._stats_lock:
                if self._started:
                    self._queue.put((entries, callback))
                    return
        raise PoolStopped("worker pool is not running")

    def free_executors(self) -> int:
        """How many shards would start at once (idle workers, nothing queued)."""
        return self._slots.free

    def wait_for_executor(self, timeout: Optional[float] = None) -> bool:
        """Block until an executor is free; ``False`` on timeout."""
        return self._slots.wait(timeout)

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SENTINEL:
                return
            entries, callback = item
            try:
                # Chaos hook: straggler delays and injected cohort failures
                # land inside the try, so an injected error takes the exact
                # path a real cohort failure takes.  Free when injection is off.
                faults.perform("workers.cohort", size=len(entries))
                jobs = [getattr(entry, "job", entry) for entry in entries]
                started = time.perf_counter()
                traces, stats = execute_trace_jobs(
                    self.model, jobs, self.network, plan_cache=self.plan_cache
                )
                if self.on_stats is not None:
                    self.on_stats(stats, time.perf_counter() - started)
            except BaseException as error:  # noqa: BLE001 - delivered to requests
                with self._stats_lock:
                    self.failed_shards += 1
                callback(entries, None, error)
            else:
                with self._stats_lock:
                    self.shards_executed += 1
                callback(entries, traces, None)
            finally:
                # Free only once the callback has returned: it finalizes
                # requests on this thread, which is not idle until then.
                self._slots.give_back()

    # --------------------------------------------------------------------- stats
    def stats(self) -> Dict[str, Any]:
        free = self._slots.free
        with self._stats_lock:
            return {
                "backend": self.backend,
                "num_workers": self.num_workers,
                "free_executors": free,
                "shards_executed": self.shards_executed,
                "failed_shards": self.failed_shards,
                "cancelled_shards": self.cancelled_shards,
            }

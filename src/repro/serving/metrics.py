"""Serving-side observability: the events only the service itself sees.

The batching trade-off the scheduler makes (wait a little, batch a lot) is
only tunable if the service exposes what it actually did: how full cohorts
were, how often a cohort mixed several requests, how long clients waited.
:class:`ServingMetrics` counts the events the service performs and nothing
else — admissions, rejections, sheds, completions, failures, background
revalidations and degraded stale serves, the shape of every flushed cohort,
and the running seconds of each scheduler phase.

Every other number :meth:`PosteriorService.stats` reports is read from the
component that performs the event (cache outcomes from
:class:`~repro.serving.cache.PosteriorCache`, retries and the breaker from
:class:`~repro.serving.resilience.ServiceResilience`, engine counters from the
shards' ``on_stats`` blocks), so each event is counted in exactly one place.
Memory is bounded: latencies and cohort shapes are windowed reservoirs, phase
time is one running total per phase.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Dict, Tuple

import numpy as np

__all__ = ["ServingMetrics"]


class ServingMetrics:
    """Thread-safe counters and reservoirs for one service instance.

    Latency samples are kept in a bounded deque (most recent ``window``
    completions), so percentiles track current behaviour rather than the
    whole process lifetime; throughput counters and phase totals are
    cumulative.
    """

    def __init__(self, window: int = 4096, clock=time.monotonic) -> None:
        self._clock = clock
        self.started_at = clock()
        self._lock = threading.Lock()
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.shed_deadline = 0
        self.rejected_overload = 0
        self.revalidations = 0
        self.degraded_stale_served = 0
        self.traces_executed = 0
        self.cohorts_executed = 0
        self._latencies: Deque[float] = deque(maxlen=window)
        #: per-flush (jobs, cohort capacity, distinct requests) records — one
        #: per scheduler flush, before any sharding across workers
        self._cohorts: Deque[Tuple[int, int, int]] = deque(maxlen=window)
        #: phase name -> seconds accumulated over the service's lifetime
        self._phase_totals: Dict[str, float] = {}

    # ----------------------------------------------------------------- recording
    def record_submitted(self) -> None:
        with self._lock:
            self.submitted += 1

    def record_rejected(self) -> None:
        with self._lock:
            self.rejected_overload += 1

    def record_shed(self) -> None:
        with self._lock:
            self.shed_deadline += 1

    def record_failed(self) -> None:
        with self._lock:
            self.failed += 1

    def record_revalidation(self) -> None:
        """A background refresh of a stale cache entry was started."""
        with self._lock:
            self.revalidations += 1

    def record_degraded_stale(self) -> None:
        """A stale cache entry was served *without* revalidation (breaker open)."""
        with self._lock:
            self.degraded_stale_served += 1

    def record_completed(self, latency: float, num_traces: int, cached: bool) -> None:
        with self._lock:
            self.completed += 1
            if not cached:
                self.traces_executed += num_traces
            self._latencies.append(float(latency))

    def record_cohort(self, num_jobs: int, capacity: int, num_requests: int) -> None:
        with self._lock:
            self.cohorts_executed += 1
            self._cohorts.append((num_jobs, capacity, num_requests))

    def record_phase(self, name: str, seconds: float) -> None:
        """Add ``seconds`` to the running total of phase ``name``."""
        with self._lock:
            self._phase_totals[name] = self._phase_totals.get(name, 0.0) + float(seconds)

    # ------------------------------------------------------------------ reading
    def snapshot(self) -> Dict[str, Any]:
        """A point-in-time view of the service's own signals, as plain floats."""
        with self._lock:
            uptime = max(self._clock() - self.started_at, 1e-9)
            latencies = np.asarray(self._latencies, dtype=float)
            cohorts = list(self._cohorts)
            snapshot: Dict[str, Any] = {
                "uptime_s": uptime,
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "shed_deadline": self.shed_deadline,
                "rejected_overload": self.rejected_overload,
                "qps": self.completed / uptime,
                "traces_executed": self.traces_executed,
                "traces_per_s": self.traces_executed / uptime,
                "cohorts_executed": self.cohorts_executed,
                "revalidations": self.revalidations,
                "degraded_stale_served": self.degraded_stale_served,
                "scheduler_phase_totals_s": dict(self._phase_totals),
            }
        if latencies.size:
            snapshot["latency_p50_s"] = float(np.percentile(latencies, 50))
            snapshot["latency_p99_s"] = float(np.percentile(latencies, 99))
            snapshot["latency_mean_s"] = float(latencies.mean())
        else:
            snapshot["latency_p50_s"] = snapshot["latency_p99_s"] = 0.0
            snapshot["latency_mean_s"] = 0.0
        if cohorts:
            occupancy = [jobs / capacity for jobs, capacity, _ in cohorts]
            snapshot["mean_cohort_occupancy"] = float(np.mean(occupancy))
            snapshot["mean_cohort_size"] = float(np.mean([j for j, _, _ in cohorts]))
            snapshot["mixed_cohort_fraction"] = float(
                np.mean([requests > 1 for _, _, requests in cohorts])
            )
        else:
            snapshot["mean_cohort_occupancy"] = 0.0
            snapshot["mean_cohort_size"] = 0.0
            snapshot["mixed_cohort_fraction"] = 0.0
        return snapshot

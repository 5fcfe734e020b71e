"""Structured timing utilities.

Section 6 of the paper instruments each training phase (minibatch read,
forward, backward, optimize, sync) with timers, records them per rank and per
minibatch, and post-processes them into the "actual vs best" load-imbalance
breakdown of Figure 4.  :class:`PhaseTimer` reproduces that instrumentation.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List

__all__ = ["Timer", "PhaseTimer", "TimingRecord"]


class Timer:
    """A simple cumulative wall-clock timer usable as a context manager."""

    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0
        self._start = None

    def start(self) -> None:
        self._start = time.perf_counter()

    def stop(self) -> float:
        if self._start is None:
            raise RuntimeError("Timer.stop() called before start()")
        elapsed = time.perf_counter() - self._start
        self.total += elapsed
        self.count += 1
        self._start = None
        return elapsed

    def __enter__(self) -> "Timer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        self.total = 0.0
        self.count = 0
        self._start = None


@dataclass
class TimingRecord:
    """Per-iteration timing of every named phase, in seconds."""

    phases: Dict[str, float] = field(default_factory=dict)

    def total(self) -> float:
        return float(sum(self.phases.values()))

    def __getitem__(self, key: str) -> float:
        return self.phases[key]


class PhaseTimer:
    """Record named phases across iterations.

    Usage::

        timer = PhaseTimer()
        with timer.phase("forward"):
            ...
        timer.end_iteration()

    After N iterations, :meth:`records` holds N :class:`TimingRecord` objects
    and :meth:`mean_by_phase` aggregates them — exactly the data needed to
    build the Figure 4 stacked bars.
    """

    def __init__(self) -> None:
        self._current: Dict[str, float] = defaultdict(float)
        self.records: List[TimingRecord] = []

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self._current[name] += time.perf_counter() - start

    def add(self, name: str, seconds: float) -> None:
        """Directly add a measured (or modelled) duration to a phase."""
        self._current[name] += seconds

    def end_iteration(self) -> TimingRecord:
        record = TimingRecord(dict(self._current))
        self.records.append(record)
        self._current = defaultdict(float)
        return record

    def mean_by_phase(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        if not self.records:
            return dict(out)
        for record in self.records:
            for name, value in record.phases.items():
                out[name] += value
        return {name: value / len(self.records) for name, value in out.items()}

    def total_by_phase(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for record in self.records:
            for name, value in record.phases.items():
                out[name] += value
        return dict(out)

    def reset(self) -> None:
        self._current = defaultdict(float)
        self.records = []

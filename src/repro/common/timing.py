"""Structured timing utilities.

Section 6 of the paper instruments each training phase (minibatch read,
forward, backward, optimize, sync) with timers, records them per rank and per
minibatch, and post-processes them into the "actual vs best" load-imbalance
breakdown of Figure 4.  :class:`PhaseTimer` reproduces that instrumentation.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["PhaseTimer", "TimingRecord"]


@dataclass
class TimingRecord:
    """Per-iteration timing of every named phase, in seconds."""

    phases: Dict[str, float] = field(default_factory=dict)


class PhaseTimer:
    """Record named phases across iterations.

    Usage::

        timer = PhaseTimer()
        timer.add("forward", seconds)
        timer.end_iteration()

    After N iterations, :meth:`records` holds N :class:`TimingRecord` objects
    and :meth:`mean_by_phase` aggregates them — exactly the data needed to
    build the Figure 4 stacked bars.
    """

    def __init__(self) -> None:
        self._current: Dict[str, float] = defaultdict(float)
        self.records: List[TimingRecord] = []

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

"""Checker registry: every invariant family the linter enforces."""

from __future__ import annotations

from typing import List

from repro.analysis.core import Checker
from repro.analysis.checkers.rng import RngDisciplineChecker
from repro.analysis.checkers.locks import LockDisciplineChecker
from repro.analysis.checkers.shapes import ShapeContractChecker
from repro.analysis.checkers.pickle_safety import PickleSafetyChecker
from repro.analysis.checkers.determinism import DeterministicIterationChecker
from repro.analysis.checkers.plans_immutability import PlanImmutabilityChecker

__all__ = [
    "all_checkers",
    "RngDisciplineChecker",
    "LockDisciplineChecker",
    "ShapeContractChecker",
    "PickleSafetyChecker",
    "DeterministicIterationChecker",
    "PlanImmutabilityChecker",
]


def all_checkers() -> List[Checker]:
    """Fresh instances of every registered checker (they carry run state)."""
    return [
        RngDisciplineChecker(),
        LockDisciplineChecker(),
        ShapeContractChecker(),
        PickleSafetyChecker(),
        DeterministicIterationChecker(),
        PlanImmutabilityChecker(),
    ]

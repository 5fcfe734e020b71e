"""Common utilities shared across the Etalumis reproduction.

This package hosts infrastructure that every other subsystem relies on:
deterministic random-number management (:mod:`repro.common.rng`), the
configuration dataclass (:mod:`repro.common.config`), lightweight structured
timing used by the training-phase instrumentation (:mod:`repro.common.timing`),
and small generic helpers (:mod:`repro.common.utils`).
"""

from repro.common.rng import RandomState, get_rng, seed_all
from repro.common.config import Config
from repro.common.timing import PhaseTimer, TimingRecord
from repro.common.utils import weighted_quantile

__all__ = [
    "RandomState",
    "get_rng",
    "seed_all",
    "Config",
    "PhaseTimer",
    "TimingRecord",
    "weighted_quantile",
]

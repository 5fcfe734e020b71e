"""Categorical distribution over ``{0, ..., K-1}``.

Used in the mini-Sherpa simulator for the tau decay-channel choice, and as
the proposal family for categorical priors in the IC network (Section 4.3).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.common.rng import RandomState
from repro.distributions.distribution import Distribution, register_distribution

__all__ = ["Categorical"]


@register_distribution
class Categorical(Distribution):
    """Categorical(probs) over integer outcomes ``0..K-1``."""

    discrete = True

    def __init__(self, probs: Sequence[float]) -> None:
        probs_arr = np.asarray(probs, dtype=float)
        if probs_arr.ndim != 1:
            raise ValueError("probs must be a 1-D vector")
        if np.any(probs_arr < 0):
            raise ValueError("probabilities must be non-negative")
        total = probs_arr.sum()
        if total <= 0:
            raise ValueError("probabilities must sum to a positive value")
        self.probs = probs_arr / total
        self._log_probs = np.log(np.clip(self.probs, 1e-300, None))

    @property
    def num_categories(self) -> int:
        return int(self.probs.shape[0])

    def sample(self, rng: Optional[RandomState] = None, size=None):
        out = self._rng(rng).choice(self.num_categories, size=size, p=self.probs)
        if size is None:
            return int(out)
        return out

    def log_prob(self, value) -> np.ndarray:
        idx = np.asarray(value, dtype=np.int64)
        if np.any((idx < 0) | (idx >= self.num_categories)):
            out = np.full(idx.shape if idx.shape else (), -np.inf)
            valid = (idx >= 0) & (idx < self.num_categories)
            safe = np.where(valid, idx, 0)
            vals = self._log_probs[safe]
            return np.where(valid, vals, -np.inf)
        return self._log_probs[idx]

    @property
    def mean(self):
        return float(np.dot(np.arange(self.num_categories), self.probs))

    @property
    def variance(self):
        values = np.arange(self.num_categories)
        mean = self.mean
        return float(np.dot((values - mean) ** 2, self.probs))

    def to_dict(self):
        return {"type": "Categorical", "probs": self.probs}

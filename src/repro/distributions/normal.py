"""Univariate normal distribution."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.common.rng import RandomState
from repro.distributions.distribution import Distribution, register_distribution

__all__ = ["Normal"]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@register_distribution
class Normal(Distribution):
    """Normal(loc, scale) with support on the real line."""

    def __init__(self, loc: float = 0.0, scale: float = 1.0) -> None:
        self.loc = np.asarray(loc, dtype=float)
        self.scale = np.asarray(scale, dtype=float)
        if np.any(self.scale <= 0):
            raise ValueError("scale must be positive")
        # log_prob runs once per latent draw per execution; cache the constant.
        self._log_scale = np.log(self.scale)

    def sample(self, rng: Optional[RandomState] = None, size=None):
        return self._rng(rng).normal(self.loc, self.scale, size=size)

    def log_prob(self, value) -> np.ndarray:
        value = np.asarray(value, dtype=float)
        z = (value - self.loc) / self.scale
        return -0.5 * z * z - self._log_scale - _LOG_SQRT_2PI

    @property
    def mean(self):
        return self.loc

    @property
    def variance(self):
        return self.scale**2

    def to_dict(self):
        # loc/scale may be scalars (latent priors) or arrays (e.g. the detector
        # likelihood over a whole voxel grid, which PPX ships as one buffer).
        loc = self.loc if self.loc.ndim else float(self.loc)
        scale = self.scale if self.scale.ndim else float(self.scale)
        return {"type": "Normal", "loc": loc, "scale": scale}

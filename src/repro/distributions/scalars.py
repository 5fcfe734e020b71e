"""Additional scalar distributions: Beta, Gamma, Exponential, Poisson, Bernoulli.

No simulator in this repo samples them.  They complete the set of "common
probability distributions" that the PPX protocol defines language-agnostic
descriptions for (Section 4.1): each is registered, so a remote simulator may
send one in a sample or observe request and the server rebuilds it.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy import special

from repro.common.rng import RandomState
from repro.distributions.distribution import Distribution, register_distribution

__all__ = ["Beta", "Gamma", "Exponential", "Poisson", "Bernoulli"]


@register_distribution
class Beta(Distribution):
    """Beta(alpha, beta) on the unit interval."""

    def __init__(self, alpha: float, beta: float) -> None:
        self.alpha = float(alpha)
        self.beta = float(beta)
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")

    def sample(self, rng: Optional[RandomState] = None, size=None):
        return self._rng(rng).beta(self.alpha, self.beta, size=size)

    def log_prob(self, value) -> np.ndarray:
        value = np.asarray(value, dtype=float)
        inside = (value > 0) & (value < 1)
        safe = np.where(inside, value, 0.5)
        log_pdf = (
            (self.alpha - 1.0) * np.log(safe)
            + (self.beta - 1.0) * np.log1p(-safe)
            - special.betaln(self.alpha, self.beta)
        )
        return np.where(inside, log_pdf, -np.inf)

    @property
    def mean(self):
        return self.alpha / (self.alpha + self.beta)

    @property
    def variance(self):
        total = self.alpha + self.beta
        return self.alpha * self.beta / (total**2 * (total + 1.0))

    def to_dict(self):
        return {"type": "Beta", "alpha": self.alpha, "beta": self.beta}


@register_distribution
class Gamma(Distribution):
    """Gamma(shape, scale) on the positive reals."""

    def __init__(self, shape: float, scale: float = 1.0) -> None:
        self.shape = float(shape)
        self.scale = float(scale)
        if self.shape <= 0 or self.scale <= 0:
            raise ValueError("shape and scale must be positive")

    def sample(self, rng: Optional[RandomState] = None, size=None):
        return self._rng(rng).gamma(self.shape, self.scale, size=size)

    def log_prob(self, value) -> np.ndarray:
        value = np.asarray(value, dtype=float)
        inside = value > 0
        safe = np.where(inside, value, 1.0)
        log_pdf = (
            (self.shape - 1.0) * np.log(safe)
            - safe / self.scale
            - special.gammaln(self.shape)
            - self.shape * math.log(self.scale)
        )
        return np.where(inside, log_pdf, -np.inf)

    @property
    def mean(self):
        return self.shape * self.scale

    @property
    def variance(self):
        return self.shape * self.scale**2

    def to_dict(self):
        return {"type": "Gamma", "shape": self.shape, "scale": self.scale}


@register_distribution
class Exponential(Distribution):
    """Exponential(rate) on the positive reals."""

    def __init__(self, rate: float) -> None:
        self.rate = float(rate)
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    def sample(self, rng: Optional[RandomState] = None, size=None):
        return self._rng(rng).exponential(1.0 / self.rate, size=size)

    def log_prob(self, value) -> np.ndarray:
        value = np.asarray(value, dtype=float)
        inside = value >= 0
        log_pdf = math.log(self.rate) - self.rate * np.where(inside, value, 0.0)
        return np.where(inside, log_pdf, -np.inf)

    @property
    def mean(self):
        return 1.0 / self.rate

    @property
    def variance(self):
        return 1.0 / self.rate**2

    def to_dict(self):
        return {"type": "Exponential", "rate": self.rate}


@register_distribution
class Poisson(Distribution):
    """Poisson(rate) over the non-negative integers."""

    discrete = True

    def __init__(self, rate: float) -> None:
        self.rate = float(rate)
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    def sample(self, rng: Optional[RandomState] = None, size=None):
        out = self._rng(rng).poisson(self.rate, size=size)
        if size is None:
            return int(out)
        return out

    def log_prob(self, value) -> np.ndarray:
        value = np.asarray(value, dtype=float)
        non_negative_int = (value >= 0) & (np.floor(value) == value)
        safe = np.where(non_negative_int, value, 0.0)
        log_pmf = safe * math.log(self.rate) - self.rate - special.gammaln(safe + 1.0)
        return np.where(non_negative_int, log_pmf, -np.inf)

    @property
    def mean(self):
        return self.rate

    @property
    def variance(self):
        return self.rate

    def to_dict(self):
        return {"type": "Poisson", "rate": self.rate}


@register_distribution
class Bernoulli(Distribution):
    """Bernoulli(p) over {0, 1}."""

    discrete = True

    def __init__(self, prob: float) -> None:
        self.prob = float(prob)
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError("prob must be in [0, 1]")

    def sample(self, rng: Optional[RandomState] = None, size=None):
        out = (self._rng(rng).random(size) < self.prob).astype(np.int64)
        if size is None:
            return int(out)
        return out

    def log_prob(self, value) -> np.ndarray:
        value = np.asarray(value, dtype=float)
        valid = (value == 0) | (value == 1)
        p = np.clip(self.prob, 1e-300, 1.0 - 1e-16)
        log_pmf = value * math.log(p) + (1.0 - value) * math.log1p(-p)
        return np.where(valid, log_pmf, -np.inf)

    @property
    def mean(self):
        return self.prob

    @property
    def variance(self):
        return self.prob * (1.0 - self.prob)

    def to_dict(self):
        return {"type": "Bernoulli", "prob": self.prob}

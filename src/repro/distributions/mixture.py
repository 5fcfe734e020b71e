"""Finite mixture distributions.

The IC proposal for a continuous latent variable is a mixture of truncated
normals; :class:`Mixture` provides the generic numpy-side machinery (sampling,
stable log-density via logsumexp, moments).  The differentiable counterpart
used during NN training lives in :mod:`repro.ppl.nn.proposals`.

Because a fresh proposal mixture is scored for *every* latent draw of every
guided execution, ``log_prob`` is on the inference hot path.  Homogeneous
mixtures of scalar :class:`Normal` / :class:`TruncatedNormal` components (the
shape every continuous proposal layer emits) therefore stack their component
parameters at construction time and evaluate the whole mixture density in one
vectorized pass instead of looping over component objects; ``sample(size=...)``
similarly groups draws by chosen component.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro.common.rng import RandomState
from repro.distributions.distribution import (
    Distribution,
    distribution_from_dict,
    register_distribution,
)
from repro.distributions.normal import Normal
from repro.distributions.truncated_normal import TruncatedNormal

__all__ = ["Mixture", "logsumexp"]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def logsumexp(log_terms: np.ndarray, axis: int = -1):
    """``log(sum(exp(log_terms)))`` along ``axis`` — the mixture densities' one reduction.

    Evaluates, operation for operation, what ``scipy.special.logsumexp`` of
    scipy 1.17 evaluates on a real float array (the entries equal to the
    maximum are counted rather than exponentiated, the rest go through
    ``log1p``), so the result is bit-identical to that scipy's — which kept
    seeded posteriors unchanged when it replaced the call — without its
    array-API dispatch, which costs several times the arithmetic on the
    ``(B, K)`` arrays a lockstep round scores.  :meth:`Mixture.log_prob` and
    ``BatchedMixtureOfTruncatedNormals.log_prob_rows`` both reduce through
    this function, which keeps a batch's rows in step with their stand-alone
    ``row_distribution`` objects.
    """
    peak = np.max(log_terms, axis=axis, keepdims=True)
    at_peak = log_terms == peak
    count = np.sum(at_peak, axis=axis, keepdims=True, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rest = np.sum(
            np.exp(np.where(at_peak, -np.inf, log_terms) - peak), axis=axis, keepdims=True
        )
        out = np.log1p(np.where(rest == 0, rest, rest / count)) + np.log(count) + peak
        finite = np.isfinite(out)
        if not finite.all():
            # All-(-inf) rows (a value outside every component's support),
            # +inf and nan entries: the direct form's answer, as in scipy.
            direct = np.log(np.sum(np.exp(log_terms), axis=axis, keepdims=True))
            out = np.where(finite, out, direct)
    return np.squeeze(out, axis=axis)[()]


@register_distribution
class Mixture(Distribution):
    """Mixture of component distributions with given weights."""

    def __init__(self, components: Sequence[Distribution], weights: Sequence[float]) -> None:
        if len(components) == 0:
            raise ValueError("a mixture needs at least one component")
        if len(components) != len(weights):
            raise ValueError("components and weights must have the same length")
        weights_arr = np.asarray(weights, dtype=float)
        if np.any(weights_arr < 0):
            raise ValueError("mixture weights must be non-negative")
        total = weights_arr.sum()
        if total <= 0:
            raise ValueError("mixture weights must sum to a positive value")
        self.components = list(components)
        self.weights = weights_arr / total
        self._log_weights = np.log(np.clip(self.weights, 1e-300, None))
        self.discrete = all(c.discrete for c in self.components)
        self._fast_params = self._stack_normal_family_parameters()

    def _stack_normal_family_parameters(self) -> Optional[Dict[str, Any]]:
        """Stacked component parameters for the vectorized density fast path.

        Applies to homogeneous mixtures of scalar Normal or TruncatedNormal
        components — the shape produced by every continuous proposal layer.
        Returns ``None`` for heterogeneous/vector mixtures, which fall back to
        the generic per-component loop.
        """
        kinds = {type(c) for c in self.components}
        if kinds == {TruncatedNormal}:
            scales = np.array([c.scale for c in self.components])
            return {
                "locs": np.array([c.loc for c in self.components]),
                "scales": scales,
                "log_scales": np.log(scales),
                "log_zs": np.array([c._log_z for c in self.components]),
                "lows": np.array([c.low for c in self.components]),
                "highs": np.array([c.high for c in self.components]),
                "truncated": True,
            }
        if kinds == {Normal} and all(c.loc.ndim == 0 and c.scale.ndim == 0 for c in self.components):
            scales = np.array([float(c.scale) for c in self.components])
            return {
                "locs": np.array([float(c.loc) for c in self.components]),
                "scales": scales,
                "log_scales": np.log(scales),
                "truncated": False,
            }
        return None

    def sample(self, rng: Optional[RandomState] = None, size=None):
        generator = self._rng(rng)
        if size is None:
            index = int(generator.choice(len(self.components), p=self.weights))
            return self.components[index].sample(rng)
        size_int = int(np.prod(size)) if not np.isscalar(size) else int(size)
        indices = generator.choice(len(self.components), size=size_int, p=self.weights)
        # Group draws by chosen component so each component samples once,
        # vectorized, instead of once per draw.
        draws = np.empty(size_int, dtype=float)
        for index in np.unique(indices):
            chosen = indices == index
            draws[chosen] = np.asarray(
                self.components[int(index)].sample(rng, size=int(chosen.sum())), dtype=float
            ).reshape(-1)
        return draws.reshape(size)

    def log_prob(self, value) -> np.ndarray:
        value = np.asarray(value, dtype=float)
        fast = self._fast_params
        if fast is not None:
            expanded = value[..., None]
            z = (expanded - fast["locs"]) / fast["scales"]
            log_pdf = -0.5 * z * z - fast["log_scales"] - _LOG_SQRT_2PI
            if fast["truncated"]:
                log_pdf = log_pdf - fast["log_zs"]
                inside = (expanded >= fast["lows"]) & (expanded <= fast["highs"])
                log_pdf = np.where(inside, log_pdf, -np.inf)
            return logsumexp(self._log_weights + log_pdf, axis=-1)
        log_terms = np.stack(
            [lw + np.asarray(c.log_prob(value), dtype=float) for lw, c in zip(self._log_weights, self.components)],
            axis=0,
        )
        return logsumexp(log_terms, axis=0)

    @property
    def mean(self):
        # Weighted sum per coordinate: forcing float(np.sum(...)) here used to
        # collapse vector-valued component means into one scalar (summing
        # across coordinates), silently corrupting summaries of vector
        # mixtures.  Scalar mixtures still return a plain float.
        total = sum(w * np.asarray(c.mean, dtype=float) for w, c in zip(self.weights, self.components))
        total = np.asarray(total)
        return float(total) if total.ndim == 0 else total

    @property
    def variance(self):
        mean = np.asarray(self.mean)
        second_moment = sum(
            w * (np.asarray(c.variance, dtype=float) + np.asarray(c.mean, dtype=float) ** 2)
            for w, c in zip(self.weights, self.components)
        )
        result = np.asarray(second_moment - mean**2)
        return float(result) if result.ndim == 0 else result

    def to_dict(self):
        return {
            "type": "Mixture",
            "weights": self.weights,
            "components": [c.to_dict() for c in self.components],
        }

    @classmethod
    def from_params(cls, **params) -> "Mixture":
        components = [distribution_from_dict(c) for c in params["components"]]
        return cls(components, params["weights"])

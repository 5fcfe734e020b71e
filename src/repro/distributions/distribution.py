"""Base class for probability distributions.

PPX defines language-agnostic descriptions of common probability
distributions so that the simulator side and the PPL side agree on priors and
likelihoods (Section 4.1).  Every distribution here therefore supports:

* ``sample(rng, size)`` and ``log_prob(value)`` with numpy semantics,
* ``to_dict()`` / ``Distribution.from_dict()`` for the PPX wire format,
* simple moments (``mean``, ``variance``) used by posterior summaries.

Differentiable *proposal* distributions (whose parameters are autograd
tensors produced by the inference network) live in
:mod:`repro.ppl.nn.proposals`; the classes here are plain numpy and are what
the simulator, the prior, and the MCMC engines use.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Type

import numpy as np

from repro.common.rng import RandomState, get_rng

__all__ = ["Distribution", "register_distribution", "distribution_from_dict", "log_prob_total"]

_REGISTRY: Dict[str, Type["Distribution"]] = {}


def register_distribution(cls: Type["Distribution"]) -> Type["Distribution"]:
    """Class decorator adding the distribution to the PPX name registry."""
    _REGISTRY[cls.__name__] = cls
    return cls


def distribution_from_dict(payload: Dict[str, Any]) -> "Distribution":
    """Reconstruct a distribution from its PPX dictionary representation."""
    name = payload.get("type")
    if name not in _REGISTRY:
        raise KeyError(f"unknown distribution type {name!r}")
    params = {k: v for k, v in payload.items() if k != "type"}
    return _REGISTRY[name].from_params(**params)


def log_prob_total(distribution, value) -> float:
    """``float(np.sum(distribution.log_prob(value)))``, the total log-density of ``value``.

    Scalar latents score to a 0-d value, and the sum of one element is that
    element, so those skip the reduction; array results (a voxel-grid
    likelihood) are summed as before.  Every caller that turns a
    ``log_prob`` into one number goes through here.
    """
    result = distribution.log_prob(value)
    if getattr(result, "ndim", 0) == 0:
        return float(result)
    return float(np.sum(result))


def _payloads_equal(a: Any, b: Any) -> bool:
    """Equality of two ``to_dict`` payload values (arrays, lists, nested dicts, scalars)."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_payloads_equal(a[key], b[key]) for key in a)
    sequences = (list, tuple, np.ndarray)
    if isinstance(a, sequences) or isinstance(b, sequences):
        try:
            arr_a = np.asarray(a, dtype=float)
            arr_b = np.asarray(b, dtype=float)
        except (ValueError, TypeError):
            # Non-numeric payload (e.g. Mixture's list of component dicts,
            # themselves holding arrays): compare member by member.
            return (
                isinstance(a, sequences)
                and isinstance(b, sequences)
                and len(a) == len(b)
                and all(_payloads_equal(x, y) for x, y in zip(a, b))
            )
        # Non-broadcastable parameter shapes (e.g. a scalar-loc Normal vs a
        # grid-likelihood Normal over a differently shaped grid) mean "not
        # equal", not "crash": np.allclose raises on them.
        try:
            return bool(np.allclose(arr_a, arr_b))
        except ValueError:
            return False
    return bool(a == b)


class Distribution:
    """Abstract base class for numpy-backed distributions."""

    #: event dimensionality: 0 for scalars, 1 for vectors, ...
    event_dim: int = 0
    #: whether the support is a discrete set
    discrete: bool = False

    @property
    def name(self) -> str:
        return type(self).__name__

    # ------------------------------------------------------------------ api
    def sample(self, rng: Optional[RandomState] = None, size=None):
        """Draw a sample (or ``size`` samples) using the given random state."""
        raise NotImplementedError

    def log_prob(self, value) -> np.ndarray:
        """Elementwise log density / log mass at ``value``."""
        raise NotImplementedError

    def prob(self, value) -> np.ndarray:
        return np.exp(self.log_prob(value))

    @property
    def mean(self):
        raise NotImplementedError

    @property
    def variance(self):
        raise NotImplementedError

    @property
    def stddev(self):
        return np.sqrt(self.variance)

    # ------------------------------------------------------------ PPX format
    def to_dict(self) -> Dict[str, Any]:
        """Serialise to the PPX dictionary representation."""
        raise NotImplementedError

    @classmethod
    def from_params(cls, **params) -> "Distribution":
        """Construct from the parameters stored by :meth:`to_dict`."""
        return cls(**params)  # type: ignore[call-arg]

    # --------------------------------------------------------------- helpers
    def _rng(self, rng: Optional[RandomState]) -> np.random.Generator:
        return (rng or get_rng()).generator

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        params = {k: v for k, v in self.to_dict().items() if k != "type"}
        inner = ", ".join(f"{k}={v}" for k, v in params.items())
        return f"{self.name}({inner})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        return _payloads_equal(self.to_dict(), other.to_dict())

    def __hash__(self) -> int:  # allow use in sets keyed by repr
        return hash(repr(self))

"""Prior geometry shared by proposal emission, minibatch packing and plans.

:class:`PriorGeometry` describes everything the continuous proposal family
needs to know about the B priors of one same-address group: support bounds,
the location/scale used to rescale the NN's normalised outputs, and the
bounded flags.  Deriving it is the only per-prior Python loop on both the
training and inference hot paths, which is why three layers precompute it:

* ``ppl/nn/proposals.py`` derives it per proposal step at emission time, and
  the lockstep session's dynamic rounds once per (prior signature, group
  size) in a cohort,
* ``data/packing.py`` derives it once per (dataset, step) at pack-build time,
* ``ppl/inference/plans.py`` compiles it once per (trace type, bucket) and
  reuses it for every planned cohort.

All three must evaluate the same floating-point expression — bit-identity
between the dynamic and planned/packed paths rests on this module being the
single definition.

:func:`prior_signature` is the exact-match companion: a cheap hashable
fingerprint of a prior's family and parameters used by the plan layer to
validate at run time that a request's prior still matches the one the plan
was compiled against, and by dynamic rounds to key their memoised geometry
and to batch previous-value encodes.  It is deliberately *exact* (``==`` on
floats, ``array_equal`` on arrays) — unlike :meth:`Distribution.__eq__`,
which is tolerance-based — because a shared geometry or encoding is only
bit-identical to the per-prior derivation when the parameters match
bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence, Tuple

import numpy as np

from repro.distributions.categorical import Categorical
from repro.distributions.distribution import Distribution
from repro.distributions.normal import Normal
from repro.distributions.truncated_normal import TruncatedNormal
from repro.distributions.uniform import Uniform

__all__ = [
    "MIN_PROPOSAL_SCALE",
    "PriorGeometry",
    "prior_bounds",
    "prior_geometry",
    "prior_signature",
]

#: Floor on proposal component scales (and on the geometry's rescale factor):
#: keeps densities finite when the NN emits a tiny scale or a prior is
#: (near-)degenerate.
MIN_PROPOSAL_SCALE = 1e-3


def prior_bounds(prior: Distribution):
    """Return ``(low, high, loc, scale)`` describing the prior's geometry.

    ``low``/``high`` are ``None`` for unbounded priors.  This is the one
    definition of how a prior family maps to proposal-rescaling geometry;
    every deriver (emission, packing, plan compilation) routes through it.
    """
    if isinstance(prior, Uniform):
        return prior.low, prior.high, 0.5 * (prior.low + prior.high), (prior.high - prior.low)
    if isinstance(prior, TruncatedNormal):
        return prior.low, prior.high, prior.loc, prior.scale
    loc = float(np.mean(np.atleast_1d(prior.mean)))
    scale = float(np.sqrt(np.mean(np.atleast_1d(prior.variance))))
    if not np.isfinite(scale) or scale <= 0:
        scale = 1.0
    return None, None, loc, scale


@dataclass(frozen=True, eq=False)
class PriorGeometry:
    """Per-row prior geometry of a same-address group, as ``(B,)`` arrays.

    Everything the mixture proposal layer needs to know about the B priors
    at one address: support bounds (``-inf``/``+inf`` on unbounded rows), the
    location/scale used to rescale the NN's normalised outputs, and the
    bounded flags.  Extracting it is the only per-prior Python loop in the
    continuous training loss, so the packed-minibatch pipeline precomputes it
    once per (dataset, step) and reuses it every iteration — and the plan
    layer precompiles it once per (trace type, bucket).

    The derived columns/flags the differentiable density consumes are cached
    **lazily**: the inference emission path also routes through a geometry
    (via ``_transformed_parameters``) but never reads them, and it must not
    pay training-only allocations per proposal step.  A pack's geometry
    builds each once and keeps it for every epoch.
    """

    lows: np.ndarray
    highs: np.ndarray
    locs: np.ndarray
    scales: np.ndarray
    bounded: np.ndarray

    #: floor added to every proposal component's scale (one value for every
    #: geometry, so not a field)
    min_scale: ClassVar[float] = MIN_PROPOSAL_SCALE

    def _cached(self, name: str, build):
        if name not in self.__dict__:
            object.__setattr__(self, name, build())
        return self.__dict__[name]

    @property
    def batch_size(self) -> int:
        return int(self.lows.shape[0])

    @property
    def locs_column(self) -> np.ndarray:
        return self._cached("_locs_column", lambda: self.locs.reshape(-1, 1))

    @property
    def scales_column(self) -> np.ndarray:
        return self._cached("_scales_column", lambda: self.scales.reshape(-1, 1))

    @property
    def finite_lows_column(self) -> np.ndarray:
        return self._cached(
            "_finite_lows_column",
            lambda: np.where(np.isfinite(self.lows), self.lows, 0.0).reshape(-1, 1),
        )

    @property
    def finite_highs_column(self) -> np.ndarray:
        return self._cached(
            "_finite_highs_column",
            lambda: np.where(np.isfinite(self.highs), self.highs, 0.0).reshape(-1, 1),
        )

    @property
    def bounded_mask_column(self) -> np.ndarray:
        return self._cached(
            "_bounded_mask_column", lambda: self.bounded.astype(float).reshape(-1, 1)
        )

    @property
    def any_bounded(self) -> bool:
        return self._cached("_any_bounded", lambda: bool(np.any(self.bounded)))

    @property
    def all_bounded(self) -> bool:
        return self._cached("_all_bounded", lambda: bool(np.all(self.bounded)))

    def prefix(self, batch: int) -> "PriorGeometry":
        """A view of the first ``batch`` rows (shared storage, fresh caches).

        The plan layer compiles one geometry at the bucket size and serves
        smaller cohorts from row prefixes; for geometries whose rows are
        replicas of one prior this is value-identical to deriving at the
        smaller size directly.
        """
        if batch == self.batch_size:
            return self
        return PriorGeometry(
            lows=self.lows[:batch],
            highs=self.highs[:batch],
            locs=self.locs[:batch],
            scales=self.scales[:batch],
            bounded=self.bounded[:batch],
        )


def prior_geometry(priors: Sequence[Distribution]) -> PriorGeometry:
    """Extract :class:`PriorGeometry` arrays from per-trace prior objects."""
    batch = len(priors)
    lows = np.empty(batch)
    highs = np.empty(batch)
    locs = np.empty(batch)
    scales = np.empty(batch)
    bounded = np.zeros(batch, dtype=bool)
    for i, prior in enumerate(priors):
        low, high, loc, scale = prior_bounds(prior)
        bounded[i] = low is not None
        lows[i] = low if low is not None else -np.inf
        highs[i] = high if high is not None else np.inf
        locs[i] = loc
        scales[i] = max(scale, MIN_PROPOSAL_SCALE)
    return PriorGeometry(lows=lows, highs=highs, locs=locs, scales=scales, bounded=bounded)


def prior_signature(prior: Distribution) -> Optional[Tuple]:
    """Exact, hashable fingerprint of a prior's family and parameters.

    ``None`` means the family is not signatureable (vector parameters, exotic
    families) — callers must then treat the prior as dynamic and re-derive
    geometry per request.  Two priors with equal signatures produce
    bit-identical :func:`prior_geometry` rows, which is the property the plan
    layer's precompiled geometry relies on.
    """
    kind = type(prior)
    if kind is Uniform:
        return ("Uniform", float(prior.low), float(prior.high))
    if kind is TruncatedNormal:
        return (
            "TruncatedNormal",
            float(prior.loc),
            float(prior.scale),
            float(prior.low),
            float(prior.high),
        )
    if kind is Normal and np.ndim(prior.loc) == 0 and np.ndim(prior.scale) == 0:
        return ("Normal", float(prior.loc), float(prior.scale))
    if kind is Categorical:
        return ("Categorical", prior.probs.tobytes(), prior.probs.shape[0])
    return None

"""Array-parameterised batched distributions for lockstep proposal steps.

One batched proposal step of the lockstep engine used to materialise B
:class:`~repro.distributions.mixture.Mixture` objects (plus B·K truncated
normal component objects) only to draw a single sample and score a single
log-density per trace.  Profiling after the serving subsystem landed showed
that this per-trace distribution-object churn — not NN compute — was the
engine's per-trace cost floor.

The classes here make the same move pyprob and vectorised PPLs (NumPyro et
al.) make: hold the whole address group's parameters as ``(B, ...)``-shaped
arrays in **one** object and draw / score all B rows in one array pass
(:meth:`~BatchedDistribution.sample_rows` /
:meth:`~BatchedDistribution.log_prob_rows`) instead of building a per-trace
object per row.

Two contracts matter:

* **Row equivalence** — ``sample_rows(rngs)[i]`` consumes ``rngs[i]`` exactly
  as ``row_distribution(i).sample(rngs[i])`` — the stand-alone per-object
  distribution the row replaces — would (component choice, then one
  uniform/normal draw; generators are consumed row by row, and only those
  calls run per row), and ``log_prob_rows(values)[i]`` evaluates the same
  floating-point expression as ``row_distribution(i).log_prob(values[i])``,
  so the lockstep engine's seeded posteriors are bit-identical to the
  per-object path.  A row depends on its own parameters and stream only, so
  rows of different addresses may share one batch: the engine draws all of
  a round's mixture groups as one.
* **O(1) objects per step** — constructing a batched distribution allocates a
  fixed number of arrays, never per-row component objects.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Union

import numpy as np
from scipy.special import ndtr, ndtri

from repro.common.rng import RandomState, get_rng
from repro.distributions.categorical import Categorical
from repro.distributions.distribution import Distribution
from repro.distributions.mixture import Mixture, logsumexp
from repro.distributions.normal import Normal
from repro.distributions.truncated_normal import TruncatedNormal, stable_truncation_z

__all__ = [
    "BatchedDistribution",
    "BatchedCategorical",
    "BatchedMixtureOfTruncatedNormals",
    "CategoricalScratch",
    "MixtureScratch",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

def _choice_cdfs(probs: np.ndarray) -> np.ndarray:
    """Per-row CDFs built exactly as ``Generator.choice`` builds them.

    A category or component is drawn by one ``random()`` per row inverted
    through these CDFs.  ``Generator.choice(p=...)`` is itself inverse-CDF
    sampling on one ``random()`` draw, so this picks the same index and leaves
    the stream in the same state, without ``choice``'s per-call validation
    and accumulation.  Same operation order (row cumsum, then division by the
    final column) so the comparisons see bit-for-bit the values numpy's own
    sampler would compute from the same probability rows.
    """
    cdfs = np.cumsum(probs, axis=-1)
    return cdfs / cdfs[:, -1:]


class CategoricalScratch:
    """Pre-allocated ``(B_max, K)`` buffers for :meth:`BatchedCategorical.build_into`.

    One scratch hosts one live batched distribution at a time — the plan
    layer leases a scratch per cohort, so the buffers of consecutive proposal
    steps at the same plan step are reused instead of reallocated.
    """

    __slots__ = ("batch_max", "num_categories", "probs", "log_probs", "cdfs", "norm")

    def __init__(self, batch_max: int, num_categories: int) -> None:
        self.batch_max = int(batch_max)
        self.num_categories = int(num_categories)
        shape = (self.batch_max, self.num_categories)
        self.probs = np.empty(shape)
        self.log_probs = np.empty(shape)
        self.cdfs = np.empty(shape)
        self.norm = np.empty((self.batch_max, 1))


class MixtureScratch:
    """Pre-allocated ``(B_max, K)`` buffers for
    :meth:`BatchedMixtureOfTruncatedNormals.build_into` (see
    :class:`CategoricalScratch` for the single-live-instance contract)."""

    __slots__ = (
        "batch_max",
        "num_components",
        "weights",
        "log_weights",
        "weight_cdfs",
        "alphas",
        "betas",
        "log_zs",
        "log_scales",
        "neg_alphas",
        "sf_lows",
        "cdf_lows",
        "norm",
    )

    def __init__(self, batch_max: int, num_components: int) -> None:
        self.batch_max = int(batch_max)
        self.num_components = int(num_components)
        shape = (self.batch_max, self.num_components)
        for name in (
            "weights",
            "log_weights",
            "weight_cdfs",
            "alphas",
            "betas",
            "log_zs",
            "log_scales",
            "neg_alphas",
            "sf_lows",
            "cdf_lows",
        ):
            setattr(self, name, np.empty(shape))
        self.norm = np.empty((self.batch_max, 1))


class BatchedDistribution:
    """Common interface of array-parameterised batched distributions.

    Not itself a :class:`Distribution`: it represents B independent
    distributions whose parameters live in shared ``(B, ...)`` arrays.  The
    bulk API (:meth:`sample_rows` / :meth:`log_prob_rows`) is how the lockstep
    engine draws and scores an address group; :meth:`row_distribution` is
    the stand-alone reference for one row.
    """

    batch_size: int
    discrete: bool = False

    def sample_rows(self, rngs: Union[RandomState, Sequence[RandomState], None] = None) -> np.ndarray:
        """One draw per row: ``out[i]`` is distributed as row ``i``.

        ``rngs`` may be one shared :class:`RandomState` or a sequence of B
        per-row states; with per-row states the draws are identical to
        ``[self.row_distribution(i).sample(rngs[i]) for i in range(B)]``.
        """
        raise NotImplementedError

    def log_prob_rows(self, values) -> np.ndarray:
        """``out[i] = log p_i(values[i])``, evaluated in one array pass."""
        raise NotImplementedError

    def row_distribution(self, index: int) -> Distribution:
        """Materialise row ``index`` as a stand-alone distribution object."""
        raise NotImplementedError

    # --------------------------------------------------------------- helpers
    def _per_row_generators(self, rngs) -> List[np.random.Generator]:
        if rngs is None:
            rngs = get_rng()
        if isinstance(rngs, RandomState):
            generator = rngs.generator
            return [generator] * self.batch_size
        if len(rngs) != self.batch_size:
            raise ValueError(
                f"sample_rows needs one rng per row ({self.batch_size}), got {len(rngs)}"
            )
        return [rng.generator for rng in rngs]


class BatchedCategorical(BatchedDistribution):
    """B independent categoricals over ``0..K-1`` held as a ``(B, K)`` array.

    A row's index is one ``random()`` inverted through its CDF: the value and
    the stream state ``Categorical.sample`` (``Generator.choice``) would give.
    """

    discrete = True

    def __init__(self, probs) -> None:
        probs_arr = np.asarray(probs, dtype=float)
        if probs_arr.ndim != 2:
            raise ValueError("probs must be a (batch, categories) matrix")
        if np.any(probs_arr < 0):
            raise ValueError("probabilities must be non-negative")
        totals = probs_arr.sum(axis=-1, keepdims=True)
        if np.any(totals <= 0):
            raise ValueError("probabilities must sum to a positive value")
        self.probs = probs_arr / totals
        self.batch_size = int(self.probs.shape[0])
        self.num_categories = int(self.probs.shape[1])
        self._log_probs = np.log(np.clip(self.probs, 1e-300, None))
        self._cdfs = _choice_cdfs(self.probs)

    @classmethod
    def build_into(cls, scratch: CategoricalScratch, probs: np.ndarray) -> "BatchedCategorical":
        """Construct into pre-allocated scratch (the planned-path constructor).

        ``probs`` is a ``(B, K)`` strictly-positive matrix — typically
        ``scratch.probs[:B]`` itself, filled by the caller — with ``B`` at most
        ``scratch.batch_max``.  Evaluates exactly the expressions ``__init__``
        evaluates (normalise, clipped log, ``_choice_cdfs``) but with ``out=``
        targets in the scratch buffers, so a planned proposal step allocates no
        ``(B, K)`` arrays.  Validation is skipped: callers guarantee
        positivity (softmax output mixed with a positive prior).  The result
        aliases the scratch — at most one instance per scratch may be live.
        """
        batch = probs.shape[0]
        self = cls.__new__(cls)
        totals = scratch.norm[:batch]
        np.sum(probs, axis=-1, keepdims=True, out=totals)
        self.probs = np.divide(probs, totals, out=probs)
        self.batch_size = int(batch)
        self.num_categories = int(probs.shape[1])
        log_probs = scratch.log_probs[:batch]
        np.clip(self.probs, 1e-300, None, out=log_probs)
        self._log_probs = np.log(log_probs, out=log_probs)
        cdfs = scratch.cdfs[:batch]
        # Same operation order as _choice_cdfs: row cumsum, then division by
        # the final column (copied out first — the quotient overwrites it).
        np.cumsum(self.probs, axis=-1, out=cdfs)
        np.copyto(totals, cdfs[:, -1:])
        self._cdfs = np.divide(cdfs, totals, out=cdfs)
        return self

    def sample_rows(self, rngs=None) -> np.ndarray:
        # One uniform per row (consumed row-by-row so each stream matches
        # row_distribution(i).sample), then one vectorised CDF inversion for
        # the whole batch: (cdf[j] <= u) counts are exactly
        # searchsorted(cdf, u, side="right").
        uniforms = np.array([generator.random() for generator in self._per_row_generators(rngs)])
        return (self._cdfs <= uniforms[:, None]).sum(axis=1)

    def log_prob_rows(self, values) -> np.ndarray:
        idx = np.asarray(values, dtype=np.int64).reshape(-1)
        valid = (idx >= 0) & (idx < self.num_categories)
        safe = np.where(valid, idx, 0)
        picked = np.take_along_axis(self._log_probs, safe[:, None], axis=-1)[:, 0]
        return np.where(valid, picked, -np.inf)

    def row_distribution(self, index: int) -> Categorical:
        return Categorical(self.probs[index])


class BatchedMixtureOfTruncatedNormals(BatchedDistribution):
    """B mixtures of K (truncated) normals held as ``(B, K)`` parameter arrays.

    The shape every continuous proposal layer emits: per row, K component
    means/scales/weights plus a shared truncation interval.  Rows whose prior
    is unbounded (``bounded[i]`` false) behave as plain normal mixtures — same
    density and, crucially, the same rng consumption as the per-object
    :class:`Mixture` of :class:`Normal` they stand in for (one ``normal``
    draw), while bounded rows reproduce :class:`TruncatedNormal`'s tail-side
    inverse-CDF sampling (one ``uniform`` draw).

    All normalisation constants are computed vectorised at construction —
    two ``ndtr`` calls for the whole batch instead of two per component
    object — and no per-component objects are ever allocated.
    """

    def __init__(self, locs, scales, weights, lows=None, highs=None, bounded=None) -> None:
        self.locs = np.asarray(locs, dtype=float)
        if self.locs.ndim != 2:
            raise ValueError("locs must be a (batch, components) matrix")
        batch, components = self.locs.shape
        self.scales = np.broadcast_to(np.asarray(scales, dtype=float), self.locs.shape).astype(float)
        if np.any(self.scales <= 0):
            raise ValueError("scale must be positive")
        weights_arr = np.asarray(weights, dtype=float)
        weights_arr = np.broadcast_to(weights_arr, self.locs.shape).astype(float)
        if np.any(weights_arr < 0):
            raise ValueError("mixture weights must be non-negative")
        totals = weights_arr.sum(axis=-1, keepdims=True)
        if np.any(totals <= 0):
            raise ValueError("mixture weights must sum to a positive value")
        self.weights = weights_arr / totals
        self._log_weights = np.log(np.clip(self.weights, 1e-300, None))
        self.batch_size = int(batch)
        self.num_components = int(components)
        self._weight_cdfs = _choice_cdfs(self.weights)

        lows_arr = np.full(batch, -np.inf) if lows is None else np.asarray(lows, dtype=float).reshape(-1)
        highs_arr = np.full(batch, np.inf) if highs is None else np.asarray(highs, dtype=float).reshape(-1)
        if lows_arr.shape != (batch,) or highs_arr.shape != (batch,):
            raise ValueError("lows/highs must supply one bound per row")
        if bounded is None:
            bounded_arr = np.isfinite(lows_arr) | np.isfinite(highs_arr)
        else:
            bounded_arr = np.asarray(bounded, dtype=bool).reshape(-1)
            if bounded_arr.shape != (batch,):
                raise ValueError("bounded must supply one flag per row")
        self.lows = np.where(bounded_arr, lows_arr, -np.inf)
        self.highs = np.where(bounded_arr, highs_arr, np.inf)
        self.bounded = bounded_arr
        if np.any(bounded_arr & ~(self.highs > self.lows)):
            raise ValueError("high must be greater than low")

        # Truncation geometry for every (row, component) at once.  Unbounded
        # rows get alpha=-inf / beta=+inf, for which Z = 1 and log Z = 0, so
        # the density math below is uniform across rows and bit-identical to
        # the untruncated normal expression on unbounded ones.
        with np.errstate(invalid="ignore"):
            self._alphas = (self.lows[:, None] - self.locs) / self.scales
            self._betas = (self.highs[:, None] - self.locs) / self.scales
        # The one shared stable-Z definition (see stable_truncation_z): using
        # anything else here would break bit-identity with the per-object
        # TruncatedNormal components.
        zs, self._degenerate = stable_truncation_z(self._alphas, self._betas)
        self._zs = zs
        self._log_zs = np.log(zs)
        self._log_scales = np.log(self.scales)
        self._sf_lows = ndtr(-self._alphas)
        self._cdf_lows = ndtr(self._alphas)

    @classmethod
    def build_into(
        cls,
        scratch: MixtureScratch,
        locs: np.ndarray,
        scales: np.ndarray,
        weights: np.ndarray,
        lows: np.ndarray,
        highs: np.ndarray,
        bounded: np.ndarray,
    ) -> "BatchedMixtureOfTruncatedNormals":
        """Construct into pre-allocated scratch (the planned-path constructor).

        Same floating-point expressions as ``__init__``, with every derived
        ``(B, K)`` array written into the scratch buffers instead of freshly
        allocated.  Caller guarantees what ``__init__`` validates: ``locs`` is
        ``(B, K)``, ``scales`` positive (softplus + floor), ``weights``
        positive (exp of log-softmax, typically ``scratch.weights[:B]``
        itself), and ``lows``/``highs`` already carry ``∓inf`` on unbounded
        rows — exactly what :func:`repro.distributions.geometry.prior_geometry`
        produces, making ``__init__``'s ``np.where(bounded, ...)`` a no-op.
        ``locs``/``scales``/``lows``/``highs``/``bounded`` are referenced, not
        copied, and must not be mutated while the instance is live; at most
        one instance per scratch may be live.
        """
        batch = locs.shape[0]
        self = cls.__new__(cls)
        self.locs = locs
        self.scales = scales
        totals = scratch.norm[:batch]
        np.sum(weights, axis=-1, keepdims=True, out=totals)
        self.weights = np.divide(weights, totals, out=weights)
        log_weights = scratch.log_weights[:batch]
        np.clip(self.weights, 1e-300, None, out=log_weights)
        self._log_weights = np.log(log_weights, out=log_weights)
        self.batch_size = int(batch)
        self.num_components = int(locs.shape[1])
        cdfs = scratch.weight_cdfs[:batch]
        # _choice_cdfs' operation order with the final column copied out
        # before the in-place division overwrites it.
        np.cumsum(self.weights, axis=-1, out=cdfs)
        np.copyto(totals, cdfs[:, -1:])
        self._weight_cdfs = np.divide(cdfs, totals, out=cdfs)
        self.lows = lows
        self.highs = highs
        self.bounded = bounded
        alphas = scratch.alphas[:batch]
        betas = scratch.betas[:batch]
        with np.errstate(invalid="ignore"):
            np.subtract(lows[:, None], locs, out=alphas)
            np.divide(alphas, scales, out=alphas)
            np.subtract(highs[:, None], locs, out=betas)
            np.divide(betas, scales, out=betas)
        self._alphas = alphas
        self._betas = betas
        zs, self._degenerate = stable_truncation_z(alphas, betas)
        self._zs = zs
        self._log_zs = np.log(zs, out=scratch.log_zs[:batch])
        self._log_scales = np.log(scales, out=scratch.log_scales[:batch])
        neg_alphas = np.negative(alphas, out=scratch.neg_alphas[:batch])
        self._sf_lows = ndtr(neg_alphas, out=scratch.sf_lows[:batch])
        self._cdf_lows = ndtr(alphas, out=scratch.cdf_lows[:batch])
        return self

    # --------------------------------------------------------------- sampling
    def sample_rows(self, rngs=None) -> np.ndarray:
        generators = self._per_row_generators(rngs)
        # Only the stream calls run per row, exactly the ones
        # row_distribution(i).sample makes and in its order: the component
        # uniform, then a bounded row's inverse-CDF uniform (random() returns
        # the double uniform(0, 1) does) or an unbounded row's standard normal
        # (numpy's normal(loc, scale) is loc + scale * standard_normal()).
        draws = np.empty((self.batch_size, 2))
        for row, (generator, bounded) in enumerate(zip(generators, self.bounded.tolist())):
            if bounded:
                generator.random(out=draws[row])
            else:
                draws[row, 0] = generator.random()
                draws[row, 1] = generator.standard_normal()
        # (cdf <= u) counts are exactly searchsorted(cdf, u, side="right").
        components = (self._weight_cdfs <= draws[:, :1]).sum(axis=1)
        out = np.empty(self.batch_size)
        free = np.flatnonzero(~self.bounded)
        if free.size:
            chosen = components[free]
            out[free] = self.locs[free, chosen] + self.scales[free, chosen] * draws[free, 1]
        self._invert_truncated(out, components, draws[:, 1])
        return out

    def _invert_truncated(self, out: np.ndarray, components: np.ndarray, uniforms: np.ndarray) -> None:
        """Fill ``out`` at the bounded rows from their chosen component and uniform."""
        # Truncated rows: gather the chosen component's parameters for the
        # bounded rows only, then invert all of them through ONE clipped
        # ndtri call.  Row-gathering (instead of evaluating the whole batch
        # and masking) keeps the expensive inverse-CDF off unbounded rows
        # while evaluating bit-for-bit the same per-row expression as
        # the per-object TruncatedNormal kernel.
        trunc = np.flatnonzero(self.bounded)
        if trunc.size:
            chosen = components[trunc]
            zs = self._zs[trunc, chosen]
            right = self._alphas[trunc, chosen] >= 0
            quantile = np.where(
                right,
                self._sf_lows[trunc, chosen] - uniforms[trunc] * zs,
                self._cdf_lows[trunc, chosen] + uniforms[trunc] * zs,
            )
            values = np.where(right, -1.0, 1.0) * ndtri(np.clip(quantile, 1e-300, 1.0))
            out[trunc] = np.clip(
                self.locs[trunc, chosen] + self.scales[trunc, chosen] * values,
                self.lows[trunc],
                self.highs[trunc],
            )

    # ---------------------------------------------------------------- density
    def log_prob_rows(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=float).reshape(-1, 1)
        z = (values - self.locs) / self.scales
        log_pdf = -0.5 * z * z - self._log_scales - _LOG_SQRT_2PI - self._log_zs
        inside = (values >= self.lows[:, None]) & (values <= self.highs[:, None])
        log_pdf = np.where(inside, log_pdf, -np.inf)
        return logsumexp(self._log_weights + log_pdf, axis=-1)

    # ------------------------------------------------------------ cold paths
    def row_distribution(self, index: int) -> Mixture:
        if self.bounded[index]:
            components: List[Distribution] = TruncatedNormal.batch_build(
                self.locs[index],
                self.scales[index],
                np.full(self.num_components, self.lows[index]),
                np.full(self.num_components, self.highs[index]),
            )
        else:
            components = [
                Normal(self.locs[index, k], self.scales[index, k])
                for k in range(self.num_components)
            ]
        return Mixture(components, self.weights[index])

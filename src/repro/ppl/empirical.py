"""Empirical distributions over execution traces.

Every inference engine returns its posterior approximation as an
:class:`Empirical`: a collection of traces (or derived values) with associated
log-weights.  RMH produces unweighted (equally-weighted) samples; IS and IC
produce importance-weighted samples.  The class provides the summaries used by
Figure 8 (histograms of selected latent variables), the effective-sample-size
measure discussed in Section 6.4, and resampling utilities.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.special import logsumexp

from repro.common.rng import RandomState, get_rng
from repro.common.utils import weighted_quantile
from repro.trace.trace import Trace

__all__ = ["Empirical", "FrozenPosterior"]


class Empirical:
    """A weighted empirical distribution over arbitrary values (usually traces)."""

    def __init__(
        self,
        values: Sequence[Any],
        log_weights: Optional[Sequence[float]] = None,
        name: str = "posterior",
    ) -> None:
        self.values: List[Any] = list(values)
        if log_weights is None:
            log_weights_arr = np.zeros(len(self.values))
        else:
            log_weights_arr = np.array(log_weights, dtype=float)
        if len(self.values) != log_weights_arr.shape[0]:
            raise ValueError("values and log_weights must have the same length")
        if len(self.values) == 0:
            raise ValueError("an Empirical distribution needs at least one value")
        # Summaries are cached, so the weights they derive from must not change
        # underneath them: freeze our (private copy of the) weights array so an
        # in-place edit raises instead of silently staling the caches.
        log_weights_arr.setflags(write=False)
        self.log_weights = log_weights_arr
        self.name = name
        # Summaries (mean/variance/quantile/histogram/...) all need the
        # numeric projection and the normalized weights; both are cached so a
        # battery of summaries over a large posterior pays the O(N) conversion
        # once.  Instances are treated as immutable after construction.
        self._numeric_cache: Optional[np.ndarray] = None
        self._normalized_cache: Optional[np.ndarray] = None

    # --------------------------------------------------------------- weights
    @property
    def normalized_weights(self) -> np.ndarray:
        if self._normalized_cache is None:
            finite = np.where(np.isfinite(self.log_weights), self.log_weights, -np.inf)
            if np.all(~np.isfinite(finite)):
                # All weights are zero: fall back to uniform to stay usable.
                cache = np.full(len(self.values), 1.0 / len(self.values))
            else:
                log_norm = logsumexp(finite)
                cache = np.exp(finite - log_norm)
            # The cache is shared across summaries; freeze it so an in-place
            # edit by a caller raises instead of silently corrupting them.
            cache.setflags(write=False)
            self._normalized_cache = cache
        return self._normalized_cache

    @property
    def log_evidence(self) -> float:
        """log(1/N sum w_i): the IS estimate of the marginal likelihood p(y)."""
        return float(logsumexp(self.log_weights) - np.log(len(self.values)))

    def effective_sample_size(self) -> float:
        """Kish effective sample size of the importance weights."""
        w = self.normalized_weights
        return float(1.0 / np.sum(w**2))

    def __len__(self) -> int:
        return len(self.values)

    # ------------------------------------------------------------ projections
    def map_values(self, fn: Callable[[Any], Any]) -> "Empirical":
        """Apply ``fn`` to every value (e.g. extract one latent from each trace)."""
        return Empirical([fn(v) for v in self.values], self.log_weights, name=self.name)

    def extract(self, name: str) -> "Empirical":
        """Project traces onto the named latent variable (drops traces lacking it)."""
        values = []
        log_weights = []
        for value, log_weight in zip(self.values, self.log_weights):
            if isinstance(value, Trace):
                extracted = value.get(name, None)
                if extracted is None:
                    continue
                values.append(extracted)
                log_weights.append(log_weight)
        if not values:
            raise KeyError(f"no trace in this Empirical has a sample named {name!r}")
        return Empirical(values, log_weights, name=f"{self.name}.{name}")

    def _numeric(self) -> np.ndarray:
        """Scalar projection of the values feeding mean/variance/quantile/histogram.

        Multi-element values are refused: the old ``reshape(-1)[0]`` silently
        summarised only the first coordinate of a vector latent as if it were
        the whole value.  Project explicitly instead, e.g.
        ``posterior.map_values(lambda v: v[2]).mean``.
        """
        if self._numeric_cache is None:
            cache = np.empty(len(self.values))
            for index, value in enumerate(self.values):
                arr = np.asarray(value, dtype=float)
                if arr.size != 1:
                    raise ValueError(
                        f"cannot form a scalar summary of {self.name!r}: value at index "
                        f"{index} has shape {arr.shape} ({arr.size} elements); summaries "
                        "like mean/variance/quantile/histogram need scalar values — "
                        "project one coordinate first, e.g. "
                        ".map_values(lambda v: np.asarray(v).reshape(-1)[i])"
                    )
                cache[index] = float(arr.reshape(()))
            cache.setflags(write=False)
            self._numeric_cache = cache
        return self._numeric_cache

    # --------------------------------------------------------------- summaries
    @property
    def mean(self) -> float:
        values = self._numeric()
        return float(np.sum(values * self.normalized_weights))

    @property
    def variance(self) -> float:
        values = self._numeric()
        mean = self.mean
        return float(np.sum(self.normalized_weights * (values - mean) ** 2))

    @property
    def stddev(self) -> float:
        return float(np.sqrt(self.variance))

    def quantile(self, q: Union[float, Sequence[float]]):
        values = self._numeric()
        result = weighted_quantile(values, q, self.normalized_weights)
        return float(result[0]) if np.isscalar(q) else result

    def mode(self):
        """The value with the largest *total* weight (MAP over the empirical support).

        Duplicate values — resampled empiricals, discrete latents — have
        their weights aggregated per unique value before the argmax, so the
        MAP reflects total probability mass, not the single heaviest trace.
        Values that cannot be keyed (multi-element arrays) aggregate by
        identity, which still collapses the duplicates that resampling
        introduces.
        """
        weights = self.normalized_weights
        totals: Dict[Any, float] = {}
        representatives: Dict[Any, Any] = {}
        for value, weight in zip(self.values, weights):
            if isinstance(value, (str, bool)):
                key: Any = value
            else:
                try:
                    key = np.asarray(value).item()
                except (TypeError, ValueError):
                    key = id(value)
                else:
                    try:
                        hash(key)
                    except TypeError:
                        # item() handed back an unhashable object (dict, list):
                        # aggregate by identity, as for multi-element arrays.
                        key = id(value)
            if key not in totals:
                totals[key] = 0.0
                representatives[key] = value
            totals[key] += float(weight)
        best = max(totals, key=totals.__getitem__)
        return representatives[best]

    def histogram(self, bins: int = 20, range_: Optional[Tuple[float, float]] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Weighted histogram: returns (densities, bin_edges)."""
        values = self._numeric()
        return np.histogram(values, bins=bins, range=range_, weights=self.normalized_weights, density=True)

    def categorical_probabilities(self) -> Dict[Any, float]:
        """Weighted probabilities of discrete values (e.g. the decay channel)."""
        probs: Dict[Any, float] = {}
        for value, weight in zip(self.values, self.normalized_weights):
            key = int(np.asarray(value).reshape(-1)[0]) if not isinstance(value, (str, bool)) else value
            probs[key] = probs.get(key, 0.0) + float(weight)
        return probs

    # --------------------------------------------------------------- resampling
    def resample(self, num_samples: Optional[int] = None, rng: Optional[RandomState] = None) -> "Empirical":
        """Systematic-style multinomial resampling to equal weights."""
        rng = rng or get_rng()
        count = num_samples or len(self.values)
        indices = rng.generator.choice(len(self.values), size=count, p=self.normalized_weights)
        return Empirical([self.values[i] for i in indices], None, name=self.name)

    # ----------------------------------------------------------------- freezing
    def freeze(self, latents: Optional[Sequence[str]] = None) -> "FrozenPosterior":
        """A trace-free, cache-safe summary of this posterior.

        The serving layer's posterior cache must hand the same result object
        to many concurrent clients and keep it resident for the cache TTL, so
        the full traces (which hold distributions, simulator results and large
        observations) are dropped: each named latent is projected onto a
        weighted marginal :class:`Empirical` of its values, which supports the
        same summaries (mean/variance/quantile/histogram/ESS) at a fraction
        of the memory, and pickles cleanly.

        ``latents`` selects which named latents to keep; ``None`` keeps every
        name that appears in the traces.  Non-trace empiricals freeze to a
        single ``"value"`` marginal.
        """
        marginals: Dict[str, Empirical] = {}
        if self.values and isinstance(self.values[0], Trace):
            if latents is None:
                seen: List[str] = []
                for trace in self.values:
                    for sample in trace.samples:
                        if sample.name is not None and sample.name not in seen:
                            seen.append(sample.name)
                latents = seen
            for name in latents:
                marginals[name] = self.extract(name)
        else:
            marginals["value"] = Empirical(list(self.values), self.log_weights, name=self.name)
        return FrozenPosterior(
            marginals=marginals,
            log_evidence=self.log_evidence,
            effective_sample_size=self.effective_sample_size(),
            size=len(self),
            name=self.name,
            engine_stats=dict(getattr(self, "engine_stats", {}) or {}),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Empirical(name={self.name!r}, size={len(self)}, ess={self.effective_sample_size():.1f})"


class FrozenPosterior:
    """An immutable, trace-free posterior summary (see :meth:`Empirical.freeze`).

    Holds one weighted marginal :class:`Empirical` per named latent plus the
    scalar summaries of the source posterior.  Supports the read-side subset
    of the :class:`Empirical` API (:meth:`extract`, ``len``, ``log_evidence``,
    ``effective_sample_size``), so cached serving responses can be consumed by
    the same client code that handles fresh ones.
    """

    def __init__(
        self,
        marginals: Dict[str, "Empirical"],
        log_evidence: float,
        effective_sample_size: float,
        size: int,
        name: str,
        engine_stats: Optional[Dict[str, int]] = None,
    ) -> None:
        self._marginals = dict(marginals)
        self.log_evidence = float(log_evidence)
        self._ess = float(effective_sample_size)
        self._size = int(size)
        self.name = name
        self.engine_stats = dict(engine_stats or {})
        self.frozen = True

    def extract(self, name: str) -> "Empirical":
        """The weighted marginal over the named latent."""
        try:
            return self._marginals[name]
        except KeyError:
            raise KeyError(
                f"latent {name!r} was not retained in this frozen posterior "
                f"(available: {sorted(self._marginals)})"
            ) from None

    def effective_sample_size(self) -> float:
        return self._ess

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrozenPosterior(name={self.name!r}, size={self._size}, "
            f"latents={sorted(self._marginals)})"
        )

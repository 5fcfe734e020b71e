"""Multivariate normal distribution, with the paper's 3D scalar fast path.

Section 4.2 describes an optimisation in the particle-detector simulator: the
general-case multivariate-normal PDF (implemented with the xtensor library)
was exclusively called on 3D data, and replacing it with a scalar-based
implementation limited to the 3D case produced a 13x speed-up of the PDF and
a 1.5x speed-up of the whole simulation pipeline.  This module implements
both code paths:

* :meth:`MultivariateNormal.log_prob` — the general Cholesky-based path.
* :meth:`MultivariateNormal.log_prob_3d_scalar` — a hand-unrolled scalar
  implementation valid only for 3-dimensional events (diagonal or full
  covariance), used by the detector likelihood and by the
  ``benchmarks/test_ablation_mvn_pdf.py`` ablation.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

import numpy as np

from repro.common.rng import RandomState
from repro.distributions.distribution import Distribution, register_distribution

__all__ = ["MultivariateNormal"]

_LOG_2PI = math.log(2.0 * math.pi)


@register_distribution
class MultivariateNormal(Distribution):
    """Multivariate normal with mean vector ``loc`` and covariance ``cov``.

    ``cov`` may be given as a full ``(d, d)`` matrix or a length-``d`` vector
    of variances (interpreted as a diagonal covariance).
    """

    event_dim = 1

    def __init__(self, loc: Sequence[float], cov: Union[Sequence[float], Sequence[Sequence[float]]]) -> None:
        self.loc = np.atleast_1d(np.asarray(loc, dtype=float))
        cov_arr = np.asarray(cov, dtype=float)
        self.dim = self.loc.shape[0]
        if cov_arr.ndim == 1:
            if cov_arr.shape[0] != self.dim:
                raise ValueError("diagonal covariance length must match loc")
            if np.any(cov_arr <= 0):
                raise ValueError("variances must be positive")
            self.cov = np.diag(cov_arr)
            self._diagonal = cov_arr.copy()
        elif cov_arr.ndim == 2:
            if cov_arr.shape != (self.dim, self.dim):
                raise ValueError("covariance must be (d, d)")
            self.cov = 0.5 * (cov_arr + cov_arr.T)
            diag = np.diag(self.cov)
            self._diagonal = diag.copy() if np.allclose(self.cov, np.diag(diag)) else None
        else:
            raise ValueError("covariance must be a vector or a matrix")
        try:
            self._chol = np.linalg.cholesky(self.cov)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise ValueError("covariance matrix must be positive definite") from exc
        self._log_det = 2.0 * float(np.sum(np.log(np.diag(self._chol))))

    # ------------------------------------------------------------------ basic
    def sample(self, rng: Optional[RandomState] = None, size=None):
        generator = self._rng(rng)
        if size is None:
            z = generator.standard_normal(self.dim)
            return self.loc + self._chol @ z
        count = int(np.prod(size)) if not np.isscalar(size) else int(size)
        z = generator.standard_normal((count, self.dim))
        draws = self.loc + z @ self._chol.T
        if np.isscalar(size):
            return draws
        return draws.reshape(tuple(np.atleast_1d(size)) + (self.dim,))

    def log_prob(self, value) -> np.ndarray:
        """General-case log density via Cholesky solve (the 'xtensor' path)."""
        value = np.asarray(value, dtype=float)
        delta = np.atleast_2d(value) - self.loc
        y = np.linalg.solve(self._chol, delta.T)
        maha = np.sum(y * y, axis=0)
        out = -0.5 * (self.dim * _LOG_2PI + self._log_det + maha)
        if value.ndim == 1:
            return out[0]
        return out.reshape(value.shape[:-1])

    def log_prob_3d_scalar(self, value) -> np.ndarray:
        """Scalar-unrolled log density valid only for 3D events.

        This mirrors the paper's replacement of the general xtensor-based PDF
        with a scalar implementation limited to the 3D case (13x faster).
        For diagonal covariance the Mahalanobis term is three scalar
        multiply-adds; for a full 3x3 covariance the inverse is computed once
        in closed form (adjugate / determinant) and unrolled.
        """
        if self.dim != 3:
            raise ValueError("log_prob_3d_scalar is only valid for 3-dimensional events")
        value = np.asarray(value, dtype=float)
        d0 = value[..., 0] - self.loc[0]
        d1 = value[..., 1] - self.loc[1]
        d2 = value[..., 2] - self.loc[2]
        if self._diagonal is not None:
            v0, v1, v2 = self._diagonal
            maha = d0 * d0 / v0 + d1 * d1 / v1 + d2 * d2 / v2
            log_det = math.log(v0) + math.log(v1) + math.log(v2)
        else:
            c = self.cov
            det = (
                c[0, 0] * (c[1, 1] * c[2, 2] - c[1, 2] * c[2, 1])
                - c[0, 1] * (c[1, 0] * c[2, 2] - c[1, 2] * c[2, 0])
                + c[0, 2] * (c[1, 0] * c[2, 1] - c[1, 1] * c[2, 0])
            )
            inv00 = (c[1, 1] * c[2, 2] - c[1, 2] * c[2, 1]) / det
            inv01 = (c[0, 2] * c[2, 1] - c[0, 1] * c[2, 2]) / det
            inv02 = (c[0, 1] * c[1, 2] - c[0, 2] * c[1, 1]) / det
            inv11 = (c[0, 0] * c[2, 2] - c[0, 2] * c[2, 0]) / det
            inv12 = (c[0, 2] * c[1, 0] - c[0, 0] * c[1, 2]) / det
            inv22 = (c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0]) / det
            maha = (
                inv00 * d0 * d0
                + inv11 * d1 * d1
                + inv22 * d2 * d2
                + 2.0 * (inv01 * d0 * d1 + inv02 * d0 * d2 + inv12 * d1 * d2)
            )
            log_det = math.log(det)
        return -0.5 * (3.0 * _LOG_2PI + log_det + maha)

    # ---------------------------------------------------------------- moments
    @property
    def mean(self):
        return self.loc

    @property
    def variance(self):
        return np.diag(self.cov)

    def to_dict(self):
        return {"type": "MultivariateNormal", "loc": self.loc, "cov": self.cov}

"""Fast 3D detector (calorimeter) simulator.

The paper couples Sherpa to a "fast 3D detector simulator" producing a
20x35x35 voxel observation; the detector likelihood originally used a general
multivariate-normal PDF (via xtensor) that was replaced with a scalar 3D
implementation for a 13x speed-up.  This module reproduces that component:

* every visible final-state particle produces an energy deposit: a
  longitudinal shower profile along the depth axis and a transverse Gaussian
  spread around its impact point,
* the per-particle smearing of the impact point uses
  :class:`repro.distributions.MultivariateNormal` — both the general and the
  scalar-3D code paths are available and compared in the ablation bench,
* the summed deposition grid is the mean of the observation model; per-voxel
  Gaussian noise gives the likelihood used by ``observe``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.common.rng import RandomState, get_rng
from repro.distributions import MultivariateNormal

__all__ = ["DetectorConfig", "Deposit", "Detector3D"]


@dataclass(frozen=True)
class DetectorConfig:
    """Geometry and response parameters of the voxel calorimeter."""

    shape: Tuple[int, int, int] = (8, 11, 11)     # (depth, x, y); paper uses (20, 35, 35)
    transverse_size: float = 3.0                   # detector half-width in "impact" units
    energy_scale: float = 1.0                      # GeV per deposited unit
    noise_sigma: float = 0.2                       # per-voxel Gaussian noise (GeV)
    shower_depth_scale: float = 0.35               # fraction of depth per unit log-energy
    transverse_spread: float = 0.9                 # Gaussian blob width in voxel units
    impact_smearing: float = 0.05                  # MVN smearing of the impact point

    @classmethod
    def paper_size(cls) -> "DetectorConfig":
        """The paper's 20x35x35 voxel configuration."""
        return cls(shape=(20, 35, 35))


@dataclass
class Deposit:
    """One particle's contribution to the calorimeter image."""

    energy: float
    impact_x: float
    impact_y: float
    is_electromagnetic: bool = False


class Detector3D:
    """Deterministic deposition + stochastic smearing of particle energies."""

    def __init__(self, config: Optional[DetectorConfig] = None, use_scalar_mvn: bool = True) -> None:
        self.config = config or DetectorConfig()
        self.use_scalar_mvn = use_scalar_mvn
        depth, height, width = self.config.shape
        self._depth_axis = np.arange(depth, dtype=float)
        self._x_axis = np.linspace(-self.config.transverse_size, self.config.transverse_size, height)
        self._y_axis = np.linspace(-self.config.transverse_size, self.config.transverse_size, width)

    # ------------------------------------------------------------------ response
    def smear_impact(self, impact: Sequence[float], rng: Optional[RandomState] = None) -> np.ndarray:
        """Smear a 3D impact vector (x, y, energy-fluctuation) with an MVN.

        This is the call site of the multivariate-normal PDF that the paper
        optimised; the distribution object exposes both the general and the
        scalar-3D log-density for the ablation benchmark.
        """
        sigma = self.config.impact_smearing
        mvn = MultivariateNormal(list(impact), [sigma**2, sigma**2, (sigma * 0.5) ** 2])
        return np.asarray(mvn.sample(rng or get_rng()), dtype=float)

    def impact_log_prob(self, impact: Sequence[float], smeared: Sequence[float]) -> float:
        """Log density of a smeared impact (scalar-3D path if enabled)."""
        sigma = self.config.impact_smearing
        mvn = MultivariateNormal(list(impact), [sigma**2, sigma**2, (sigma * 0.5) ** 2])
        if self.use_scalar_mvn:
            return float(mvn.log_prob_3d_scalar(np.asarray(smeared, dtype=float)))
        return float(mvn.log_prob(np.asarray(smeared, dtype=float)))

    def _longitudinal_profile(self, energy: float, electromagnetic: bool) -> np.ndarray:
        """Energy fraction deposited per depth layer (simplified shower profile)."""
        depth = self.config.shape[0]
        # Shower maximum scales with log(E); EM showers are shorter.
        log_energy = np.log(max(energy, 1e-3) + 1.0)
        peak = (0.25 if electromagnetic else 0.45) * depth + self.config.shower_depth_scale * log_energy
        width = (0.15 if electromagnetic else 0.25) * depth + 0.5
        profile = np.exp(-0.5 * ((self._depth_axis - peak) / width) ** 2)
        total = profile.sum()
        return profile / total if total > 0 else np.full(depth, 1.0 / depth)

    def _transverse_profile(self, impact_x: float, impact_y: float) -> np.ndarray:
        """2D Gaussian blob centred on the impact point (in detector units)."""
        spread = self.config.transverse_spread * (
            2.0 * self.config.transverse_size / max(self.config.shape[1], 1)
        )
        gx = np.exp(-0.5 * ((self._x_axis - impact_x) / spread) ** 2)
        gy = np.exp(-0.5 * ((self._y_axis - impact_y) / spread) ** 2)
        blob = np.outer(gx, gy)
        total = blob.sum()
        return blob / total if total > 0 else np.full(blob.shape, 1.0 / blob.size)

    def deposit(self, deposits: Sequence[Deposit]) -> np.ndarray:
        """Expected (noise-free) calorimeter image for a set of deposits."""
        grid = np.zeros(self.config.shape, dtype=float)
        for dep in deposits:
            if dep.energy <= 0:
                continue
            longitudinal = self._longitudinal_profile(dep.energy, dep.is_electromagnetic)
            transverse = self._transverse_profile(dep.impact_x, dep.impact_y)
            grid += dep.energy * self.config.energy_scale * longitudinal[:, None, None] * transverse[None, :, :]
        return grid

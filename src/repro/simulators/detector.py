"""Fast 3D detector (calorimeter) simulator.

The paper couples Sherpa to a "fast 3D detector simulator" producing a
20x35x35 voxel observation; the detector likelihood originally used a general
multivariate-normal PDF (via xtensor) that was replaced with a scalar 3D
implementation for a 13x speed-up.  This module reproduces that component:

* every visible final-state particle produces an energy deposit: a
  longitudinal shower profile along the depth axis and a transverse Gaussian
  spread around its impact point,
* the summed deposition grid is the mean of the observation model; per-voxel
  Gaussian noise gives the likelihood used by ``observe`` — the tau simulator
  observes a :class:`~repro.distributions.Normal` over the whole grid, so no
  multivariate-normal density is evaluated.  The paper's scalar 3D PDF is
  :meth:`repro.distributions.MultivariateNormal.log_prob_3d_scalar`, which
  only its ablation (``benchmarks/test_ablation_mvn_pdf.py``) and tests call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

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


@dataclass
class Deposit:
    """One particle's contribution to the calorimeter image."""

    energy: float
    impact_x: float
    impact_y: float
    is_electromagnetic: bool = False


class Detector3D:
    """Deterministic deposition of particle energies onto the voxel grid."""

    def __init__(self, config: Optional[DetectorConfig] = None) -> None:
        self.config = config or DetectorConfig()
        depth, height, width = self.config.shape
        self._depth_axis = np.arange(depth, dtype=float)
        self._x_axis = np.linspace(-self.config.transverse_size, self.config.transverse_size, height)
        self._y_axis = np.linspace(-self.config.transverse_size, self.config.transverse_size, width)

    # ------------------------------------------------------------------ response
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

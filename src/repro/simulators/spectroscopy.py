"""Spectroscopy simulator: the second science domain from the paper's introduction.

The introduction motivates the technique with two examples: the LHC use case
and "using a spectroscopy simulator we can determine the elemental matter
composition and dispersions within the simulator explaining an observed
spectrum".  This module provides that second forward model:

* each element in a small periodic-table excerpt has known emission-line
  positions and relative intensities,
* the latent state is the elemental composition (fractions), a common line
  broadening (dispersion), and a smooth background level,
* the observed spectrum is the composition-weighted sum of broadened line
  templates plus background, with Gaussian readout noise.

Inference then inverts an observed spectrum into a posterior over
composition and dispersion — the same outputs→inputs inversion as the LHC
case, exercising the identical PPL machinery on a different observation
modality (1D spectra instead of 3D voxels).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.distributions import Normal, Uniform
from repro.ppl.model import Model
from repro.simulators.handle import LocalHandle, SimulatorHandle

__all__ = ["ElementLine", "SpectroscopyConfig", "spectroscopy_program", "SpectroscopyModel"]


@dataclass(frozen=True)
class ElementLine:
    """An emission line: position (in detector channels, normalised) and intensity."""

    position: float
    intensity: float


#: Emission-line tables for a small set of elements (positions on a [0, 1] axis).
ELEMENT_LINES: Dict[str, Tuple[ElementLine, ...]] = {
    "Fe": (ElementLine(0.22, 1.0), ElementLine(0.47, 0.45), ElementLine(0.81, 0.2)),
    "Ni": (ElementLine(0.30, 1.0), ElementLine(0.58, 0.6)),
    "Cr": (ElementLine(0.15, 0.8), ElementLine(0.66, 1.0)),
    "Si": (ElementLine(0.09, 1.0),),
}


@dataclass(frozen=True)
class SpectroscopyConfig:
    """Observation grid and priors for the spectroscopy model."""

    elements: Tuple[str, ...] = ("Fe", "Ni", "Cr", "Si")
    num_channels: int = 64
    dispersion_range: Tuple[float, float] = (0.005, 0.05)
    background_range: Tuple[float, float] = (0.0, 0.2)
    noise_sigma: float = 0.02


def _line_template(position: float, dispersion: float, axis: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * ((axis - position) / dispersion) ** 2)


def spectroscopy_program(
    handle: SimulatorHandle,
    config: Optional[SpectroscopyConfig] = None,
) -> Dict[str, Any]:
    """One simulated spectrum; returns composition, dispersion and the spectrum."""
    config = config or SpectroscopyConfig()
    axis = np.linspace(0.0, 1.0, config.num_channels)

    # Composition fractions via independent uniform draws, normalised to sum to 1
    # (a stick-free parameterisation that keeps every latent's prior simple).
    raw = [
        float(handle.sample(Uniform(0.05, 1.0), name=f"abundance_{element}"))
        for element in config.elements
    ]
    total = sum(raw)
    fractions = [value / total for value in raw]

    dispersion = float(handle.sample(Uniform(*config.dispersion_range), name="dispersion"))
    background = float(handle.sample(Uniform(*config.background_range), name="background"))

    spectrum = np.full(config.num_channels, background, dtype=float)
    for element, fraction in zip(config.elements, fractions):
        for line in ELEMENT_LINES[element]:
            spectrum += fraction * line.intensity * _line_template(line.position, dispersion, axis)

    # No value supplied: the handle simulates the noise from the execution's
    # own stream, and draws nothing when the observe is conditioned.
    observed = handle.observe(Normal(spectrum, config.noise_sigma), name="spectrum")

    return {
        "fractions": dict(zip(config.elements, fractions)),
        "dispersion": dispersion,
        "background": background,
        "expected_spectrum": spectrum,
        "observed_spectrum": np.asarray(observed),
    }


class SpectroscopyModel(Model):
    """The spectroscopy forward model as a local PPL model."""

    def __init__(self, config: Optional[SpectroscopyConfig] = None) -> None:
        super().__init__(name="spectroscopy")
        self.config = config or SpectroscopyConfig()

    def forward(self) -> Dict[str, Any]:
        return spectroscopy_program(LocalHandle(), self.config)

    @property
    def num_channels(self) -> int:
        return self.config.num_channels

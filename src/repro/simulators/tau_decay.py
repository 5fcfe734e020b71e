"""Mini-Sherpa: tau-lepton production and decay as a probabilistic program.

This is the reproduction's stand-in for the Sherpa event generator coupled to
the fast 3D detector simulator (Section 5.4).  The probabilistic structure
mirrors the properties of the real setup that the Etalumis system is built
around:

* a categorical decay-channel choice over the tau decay table,
* continuous kinematic latents (tau momentum components px, py, pz),
* a **rejection-sampling loop** in the decay kinematics, so the number of
  random draws per execution is unbounded and the model exhibits many trace
  types (the paper notes ~25k latent variables and an unlimited number of
  random variables for this reason),
* a 3D voxel detector observation conditioned with a per-voxel Gaussian
  likelihood.

The latent variables of physics interest match Figure 8: the tau momentum
(px, py, pz), the decay channel, the energies of the two highest-energy
final-state particles (FSP energy 1/2) and the missing transverse energy
(MET).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.rng import RandomState, get_rng
from repro.distributions import Categorical, Normal, Uniform, log_prob_total
from repro.ppl.model import Model
from repro.simulators.channels import DECAY_CHANNELS, TAU_MASS, branching_ratios
from repro.simulators.detector import Deposit, Detector3D, DetectorConfig
from repro.simulators.handle import LocalHandle, SimulatorHandle

__all__ = ["TauDecayConfig", "tau_decay_program", "TauDecayModel", "ground_truth_event"]


@dataclass(frozen=True)
class TauDecayConfig:
    """Priors and detector settings of the mini-Sherpa model."""

    px_range: Tuple[float, float] = (-3.0, 3.0)
    py_range: Tuple[float, float] = (-3.0, 3.0)
    pz_range: Tuple[float, float] = (43.0, 47.0)
    detector: DetectorConfig = DetectorConfig()
    max_rejection_iterations: int = 8

    def detector_simulator(self) -> Detector3D:
        return Detector3D(self.detector)


def _accept(fractions: Sequence[float]) -> bool:
    """Rejection criterion: fractions must be jointly consistent (rescalable)."""
    total = float(sum(fractions))
    return 0.6 <= total <= 1.8


def _rescale(fractions: Sequence[float]) -> List[float]:
    total = float(sum(fractions))
    return [float(f) / total for f in fractions]


def _leptonic_fractions(handle: SimulatorHandle, num_products: int, max_iterations: int) -> List[float]:
    """Energy sharing for leptonic decays (tau -> l nu nu): two neutrinos.

    The three decay code paths (leptonic, one-prong hadronic, multi-prong
    hadronic) are separate functions on purpose: their sample statements sit at
    different call sites and therefore produce *different addresses*, exactly
    like the distinct decay routines inside Sherpa.  Each path contains a
    rejection loop, so trace lengths vary within a path too.
    """
    for _ in range(max_iterations):
        fractions = [
            handle.sample(Uniform(0.02, 1.0), name=f"fraction_{i}") for i in range(num_products)
        ]
        if _accept(fractions):
            return _rescale(fractions)
    return _rescale(fractions)


def _one_prong_fractions(handle: SimulatorHandle, num_products: int, max_iterations: int) -> List[float]:
    """Energy sharing for one-prong hadronic decays (single charged hadron)."""
    for _ in range(max_iterations):
        fractions = [
            handle.sample(Uniform(0.02, 1.0), name=f"fraction_{i}") for i in range(num_products)
        ]
        if _accept(fractions):
            return _rescale(fractions)
    return _rescale(fractions)


def _multi_prong_fractions(handle: SimulatorHandle, num_products: int, max_iterations: int) -> List[float]:
    """Energy sharing for multi-prong hadronic decays (three charged hadrons)."""
    for _ in range(max_iterations):
        fractions = [
            handle.sample(Uniform(0.02, 1.0), name=f"fraction_{i}") for i in range(num_products)
        ]
        if _accept(fractions):
            return _rescale(fractions)
    return _rescale(fractions)


def _energy_fractions(
    handle: SimulatorHandle,
    channel,
    max_iterations: int,
) -> List[float]:
    """Dispatch to the decay routine appropriate for the channel's topology."""
    charged_hadrons = sum(1 for p in channel.products if p.charged and p.name in ("pi", "K"))
    leptonic = any(p.name in ("e", "mu") for p in channel.products)
    if leptonic:
        return _leptonic_fractions(handle, channel.num_products, max_iterations)
    if charged_hadrons >= 3:
        return _multi_prong_fractions(handle, channel.num_products, max_iterations)
    return _one_prong_fractions(handle, channel.num_products, max_iterations)


def tau_decay_program(
    handle: SimulatorHandle,
    config: Optional[TauDecayConfig] = None,
) -> Dict[str, Any]:
    """One simulated tau event: returns derived quantities and the detector image."""
    config = config or TauDecayConfig()
    detector = config.detector_simulator()

    # --- tau production kinematics -------------------------------------------
    px = float(handle.sample(Uniform(*config.px_range), name="px"))
    py = float(handle.sample(Uniform(*config.py_range), name="py"))
    pz = float(handle.sample(Uniform(*config.pz_range), name="pz"))
    tau_momentum = np.array([px, py, pz])
    tau_energy = float(np.sqrt(np.sum(tau_momentum**2) + TAU_MASS**2))

    # --- decay channel ---------------------------------------------------------
    channel_index = int(handle.sample(Categorical(branching_ratios()), name="channel"))
    channel = DECAY_CHANNELS[channel_index]

    # --- decay kinematics (rejection loop, per-topology code path) --------------
    fractions = _energy_fractions(handle, channel, config.max_rejection_iterations)
    product_energies = [max(f * tau_energy, p.mass) for f, p in zip(fractions, channel.products)]

    # --- detector deposition ----------------------------------------------------
    deposits: List[Deposit] = []
    visible_energies: List[float] = []
    invisible_pt = 0.0
    transverse_norm = max(float(np.sqrt(px**2 + py**2)), 1e-6)
    for particle, energy, fraction in zip(channel.products, product_energies, fractions):
        # Impact point follows the tau flight direction, spread by the fraction share.
        offset = 0.8 * (fraction - 0.5)
        impact_x = px / max(abs(pz), 1e-6) * detector.config.transverse_size * 4.0 + offset
        impact_y = py / max(abs(pz), 1e-6) * detector.config.transverse_size * 4.0 - offset
        impact_x = float(np.clip(impact_x, -detector.config.transverse_size, detector.config.transverse_size))
        impact_y = float(np.clip(impact_y, -detector.config.transverse_size, detector.config.transverse_size))
        if particle.visible:
            deposits.append(
                Deposit(
                    energy=float(energy),
                    impact_x=impact_x,
                    impact_y=impact_y,
                    is_electromagnetic=particle.name in ("e", "pi0", "gamma"),
                )
            )
            visible_energies.append(float(energy))
        else:
            invisible_pt += float(energy) * transverse_norm / max(tau_energy, 1e-6)

    expected_image = detector.deposit(deposits)
    # No value supplied: the handle simulates the readout noise from the
    # execution's own stream, and draws nothing when the observe is conditioned.
    observed_image = handle.observe(
        Normal(expected_image, detector.config.noise_sigma), name="detector"
    )

    # --- derived quantities (the Figure 8 variables) ----------------------------
    sorted_visible = sorted(visible_energies, reverse=True)
    fsp_energy_1 = sorted_visible[0] if sorted_visible else 0.0
    fsp_energy_2 = sorted_visible[1] if len(sorted_visible) > 1 else 0.0
    met = invisible_pt

    return {
        "px": px,
        "py": py,
        "pz": pz,
        "channel": channel_index,
        "channel_name": channel.name,
        "tau_energy": tau_energy,
        "fsp_energy_1": fsp_energy_1,
        "fsp_energy_2": fsp_energy_2,
        "met": met,
        "num_products": channel.num_products,
        "expected_image": expected_image,
        "observed_image": np.asarray(observed_image),
    }


class TauDecayModel(Model):
    """The mini-Sherpa + detector pipeline as a local PPL model."""

    def __init__(self, config: Optional[TauDecayConfig] = None) -> None:
        super().__init__(name="tau-decay")
        self.config = config or TauDecayConfig()

    def forward(self) -> Dict[str, Any]:
        return tau_decay_program(LocalHandle(), self.config)

    @property
    def observation_shape(self) -> Tuple[int, int, int]:
        return self.config.detector.shape


def ground_truth_event(
    config: Optional[TauDecayConfig] = None,
    rng: Optional[RandomState] = None,
    overrides: Optional[Dict[str, Any]] = None,
) -> Tuple[Dict[str, Any], np.ndarray]:
    """Generate a test observation with known ground truth.

    Returns ``(ground_truth, observation)`` where ``ground_truth`` is the
    result dict of one prior execution (optionally with specific latent values
    forced via ``overrides``, e.g. a chosen decay channel) and ``observation``
    is the noisy detector image to condition on — the "test tau observation
    data" of Section 6.4.
    """
    config = config or TauDecayConfig()
    rng = rng or get_rng()
    model = TauDecayModel(config)
    if overrides:
        from repro.ppl.state import Controller

        class _OverrideController(Controller):
            def choose(self, address, instance, distribution, name, inner_rng):
                if name in overrides and instance == 0:
                    value = overrides[name]
                else:
                    value = distribution.sample(inner_rng)
                log_q = log_prob_total(distribution, value)
                return value, log_q

        trace = model.get_trace(_OverrideController(), rng=rng)
    else:
        trace = model.prior_trace(rng)
    result = trace.result
    observation = np.asarray(result["observed_image"], dtype=float)
    return result, observation

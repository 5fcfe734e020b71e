"""Sample records: one random-number draw (or conditioning point) in a trace."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.distributions import Distribution

__all__ = ["Sample"]


@dataclass
class Sample:
    """A single sample or observe statement executed by the simulator.

    Attributes
    ----------
    address:
        The unique label identifying this random-number draw site (Section 1:
        an execution trace is a sequence of addresses, prior distributions and
        sampled values).  Built from the simulator call stack by
        :mod:`repro.ppx.addresses`.
    distribution:
        The prior distribution (for latent samples) or likelihood (for
        observes) attached to this draw.
    value:
        The realised value.
    observed:
        True for ``observe`` statements (conditioning), False for ``sample``.
    log_prob:
        Log density/mass of ``value`` under ``distribution``; cached because
        inference engines score traces repeatedly.
    controlled:
        Whether an inference engine is allowed to replace this value (latent
        samples are controlled; observed values never are).
    name:
        Optional human-readable name (e.g. ``"px"``, ``"decay_channel"``)
        used by posterior summaries and Figure 8-style plots.
    instance:
        Occurrence counter of this address within the trace: rejection-
        sampling loops re-visit the same static address many times, and the
        (address, instance) pair is what uniquely keys a draw.
    """

    address: str
    distribution: Optional[Distribution]
    value: Any
    observed: bool = False
    log_prob: float = 0.0
    controlled: bool = True
    name: Optional[str] = None
    instance: int = 0

    def to_dict(self, include_distribution: bool = True) -> Dict[str, Any]:
        """Serialise for PPX transfer / on-disk storage."""
        value = self.value
        if isinstance(value, np.ndarray):
            value = value.tolist()
        payload: Dict[str, Any] = {
            "address": self.address,
            "value": value,
            "observed": self.observed,
            "log_prob": float(self.log_prob),
            "controlled": self.controlled,
            "name": self.name,
            "instance": self.instance,
        }
        if include_distribution and self.distribution is not None:
            payload["distribution"] = self.distribution.to_dict()
        return payload

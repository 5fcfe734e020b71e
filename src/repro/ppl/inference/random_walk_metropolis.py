"""Single-site Metropolis–Hastings in trace space (RMH / LMH).

This is the paper's MCMC baseline (Section 4.2): a high-compute-cost
sequential algorithm with statistical guarantees, used to establish reference
posteriors against which IC inference is validated (Figure 8).  Two proposal
kernels are provided, matching the two algorithm families cited:

* ``kernel="prior"`` — lightweight Metropolis–Hastings (LMH, Wingate et al.):
  the chosen site is re-drawn from its prior.
* ``kernel="random_walk"`` — random-walk MH (RMH): continuous sites receive a
  Gaussian perturbation scaled to the prior scale (truncated to the support
  for bounded priors); discrete sites fall back to a prior re-draw.

Each MCMC iteration re-executes the simulator with a
:class:`repro.ppl.state.ReplayController` that reuses the current trace's
values everywhere except the resampled site; values needed on a new control
path are drawn fresh from the prior.  The acceptance ratio follows the
standard single-site trace-MH form, accounting for the site-selection
probability, the site proposal density, and the prior density of fresh/stale
draws on either side.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.common.rng import RandomState, get_rng
from repro.distributions import Categorical, Distribution, Normal, TruncatedNormal, Uniform, log_prob_total
from repro.ppl.empirical import Empirical
from repro.ppl.state import PriorController, ReplayController, check_observed_keys
from repro.trace.trace import Trace

__all__ = ["RandomWalkMetropolis"]


class RandomWalkMetropolis:
    """Single-site MH sampler over execution traces."""

    def __init__(
        self,
        model,
        observation: Dict[str, Any],
        kernel: str = "random_walk",
        step_scale: float = 0.2,
        burn_in: int = 0,
        thin: int = 1,
    ) -> None:
        if kernel not in ("random_walk", "prior"):
            raise ValueError("kernel must be 'random_walk' or 'prior'")
        if thin < 1:
            raise ValueError("thin must be >= 1")
        self.model = model
        self.observation = observation
        self.kernel = kernel
        self.step_scale = float(step_scale)
        self.burn_in = int(burn_in)
        self.thin = int(thin)
        # Statistics
        self.num_proposed = 0
        self.num_accepted = 0
        self.num_executions = 0

    # ------------------------------------------------------------------ kernel
    def _site_proposal(self, distribution: Distribution, current_value) -> Tuple[Any, float, float]:
        """Propose a new value for the chosen site.

        Returns ``(new_value, log_q_forward, log_q_reverse)`` where the log
        densities are of the site proposal kernel only.
        """
        if self.kernel == "prior" or distribution.discrete:
            new_value = distribution.sample(self._rng)
            log_forward = log_prob_total(distribution, new_value)
            log_reverse = log_prob_total(distribution, current_value)
            return new_value, log_forward, log_reverse

        # Random-walk kernel for continuous sites, scaled to the prior spread.
        scale = self.step_scale * float(np.sqrt(np.mean(np.atleast_1d(distribution.variance))))
        if scale <= 0 or not math.isfinite(scale):
            scale = self.step_scale
        current = float(np.asarray(current_value, dtype=float).reshape(-1)[0])
        if isinstance(distribution, Uniform):
            forward = TruncatedNormal(current, scale, distribution.low, distribution.high)
            new_value = float(forward.sample(self._rng))
            reverse = TruncatedNormal(new_value, scale, distribution.low, distribution.high)
        else:
            forward = Normal(current, scale)
            new_value = float(forward.sample(self._rng))
            reverse = Normal(new_value, scale)
        log_forward = float(forward.log_prob(new_value))
        log_reverse = float(reverse.log_prob(current))
        return new_value, log_forward, log_reverse

    # -------------------------------------------------------------------- run
    def run(
        self,
        num_traces: int,
        rng: Optional[RandomState] = None,
        initial_trace: Optional[Trace] = None,
    ) -> Empirical:
        """Run the chain for ``burn_in + num_traces * thin`` iterations."""
        if num_traces <= 0:
            raise ValueError("num_traces must be positive")
        self._rng = rng or get_rng()
        current = initial_trace or self.model.get_trace(
            PriorController(), observed_values=self.observation, rng=self._rng
        )
        self.num_executions += 0 if initial_trace is not None else 1
        check_observed_keys(self.observation, current)
        kept: List[Trace] = []
        total_iterations = self.burn_in + num_traces * self.thin
        for iteration in range(total_iterations):
            current = self._step(current)
            if iteration >= self.burn_in and (iteration - self.burn_in) % self.thin == 0:
                kept.append(current)
        kept = kept[:num_traces]
        return Empirical(kept, None, name="rmh_posterior")

    # ------------------------------------------------------------------- step
    def _step(self, current: Trace) -> Trace:
        controlled = [s for s in current.samples if s.controlled]
        if not controlled:
            return current
        site_index = int(self._rng.integers(0, len(controlled)))
        site = controlled[site_index]
        new_value, log_site_forward, log_site_reverse = self._site_proposal(site.distribution, site.value)
        if not np.all(np.isfinite(np.atleast_1d(site.distribution.log_prob(new_value)))):
            self.num_proposed += 1
            return current  # proposed value outside the prior support

        base_values = {(s.address, s.instance): s.value for s in current.samples if s.controlled}
        controller = ReplayController(
            base_values=base_values,
            resample_key=(site.address, site.instance),
            resample_value=new_value,
        )
        proposed = self.model.get_trace(controller, observed_values=self.observation, rng=self._rng)
        check_observed_keys(self.observation, proposed)
        self.num_executions += 1
        self.num_proposed += 1

        proposed_controlled = [s for s in proposed.samples if s.controlled]
        if not proposed_controlled:
            return current

        proposed_keys = {(s.address, s.instance) for s in proposed_controlled}
        current_keys = set(base_values.keys())
        # Prior density of values that exist only on one side (fresh vs stale).
        log_fresh = sum(
            s.log_prob for s in proposed_controlled if (s.address, s.instance) not in current_keys
        )
        log_stale = sum(
            s.log_prob for s in controlled if (s.address, s.instance) not in proposed_keys
        )

        log_alpha = (
            proposed.log_joint
            - current.log_joint
            + math.log(len(controlled))
            - math.log(len(proposed_controlled))
            + (log_site_reverse - log_site_forward)
            + (log_stale - log_fresh)
        )
        if math.log(self._rng.uniform(0.0, 1.0) + 1e-300) < log_alpha:
            self.num_accepted += 1
            return proposed
        return current

    # -------------------------------------------------------------- statistics
    @property
    def acceptance_rate(self) -> float:
        return self.num_accepted / self.num_proposed if self.num_proposed else 0.0

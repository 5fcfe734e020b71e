"""Execution state: the machinery behind ``sample`` and ``observe``.

A probabilistic program (a Python generative function, or a remote simulator
speaking PPX) calls :func:`sample` at every random-number draw and
:func:`observe` at every conditioning point.  While a model executes under
:class:`ExecutionState`, those calls are routed to a *controller* that decides
the value of each draw.  Different inference engines plug in different
controllers:

* :class:`PriorController` — draw from the prior (forward simulation /
  training-data generation),
* :class:`ReplayController` — reuse the values of an existing trace except at
  a chosen resample site (the single-site RMH/LMH kernel),
* :class:`ProposalController` — draw from per-address proposal distributions
  (importance sampling, and IC where the proposals come from the trained NN).

Every controller also reports the log-density of its choice under the
distribution it actually sampled from, so that importance weights and MH
acceptance ratios can be formed exactly.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.common.rng import RandomState, get_rng
from repro.distributions import Distribution, log_prob_total
from repro.ppx.addresses import AddressBuilder
from repro.trace.sample import Sample
from repro.trace.trace import Trace

__all__ = [
    "ExecutionState",
    "Controller",
    "PriorController",
    "ReplayController",
    "ProposalController",
    "sample",
    "observe",
    "current_state",
]


class Controller:
    """Policy deciding the value of every latent draw during one execution."""

    def choose(
        self,
        address: str,
        instance: int,
        distribution: Distribution,
        name: Optional[str],
        rng: RandomState,
    ) -> Tuple[Any, float]:
        """Return ``(value, log_q)`` where ``log_q`` is the log-density of the
        chosen value under the distribution it was actually drawn from."""
        raise NotImplementedError

    #: prior log-density of the latest choice, for a controller that scores it
    #: anyway: :meth:`ExecutionState.do_sample` then carries the number
    #: instead of evaluating ``distribution.log_prob(value)`` a second time.
    last_log_prior: Optional[float] = None


class PriorController(Controller):
    """Draw every latent from its prior (forward simulation)."""

    def choose(self, address, instance, distribution, name, rng):
        value = distribution.sample(rng)
        log_q = self.last_log_prior = log_prob_total(distribution, value)
        return value, log_q


class ReplayController(Controller):
    """Reuse values from a base trace, except at one resample site.

    Used by the single-site Metropolis–Hastings engines: the proposed trace
    reuses the current trace's values at every (address, instance) pair except
    the chosen ``resample_key``, whose value is supplied by the MCMC kernel.
    Addresses not present in the base trace (the program took a different
    path) are drawn fresh from the prior.
    """

    def __init__(
        self,
        base_values: Dict[Tuple[str, int], Any],
        resample_key: Optional[Tuple[str, int]] = None,
        resample_value: Any = None,
    ) -> None:
        self.base_values = base_values
        self.resample_key = resample_key
        self.resample_value = resample_value
        #: log prior density of values drawn fresh (not reused, not the resample site)
        self.fresh_log_prob = 0.0
        #: keys of the base trace that were reused in this execution
        self.reused_keys: List[Tuple[str, int]] = []
        self.fresh_keys: List[Tuple[str, int]] = []

    def choose(self, address, instance, distribution, name, rng):
        key = (address, instance)
        if self.resample_key is not None and key == self.resample_key:
            value = self.resample_value
            log_q = self.last_log_prior = log_prob_total(distribution, value)
            return value, log_q
        if key in self.base_values:
            value = self.base_values[key]
            log_q = self.last_log_prior = log_prob_total(distribution, value)
            # A reused value can become impossible under the new path's prior
            # (e.g. changed support); treat that as a fresh prior draw instead.
            if np.isfinite(log_q):
                self.reused_keys.append(key)
                return value, log_q
        value = distribution.sample(rng)
        log_q = self.last_log_prior = log_prob_total(distribution, value)
        self.fresh_log_prob += log_q
        self.fresh_keys.append(key)
        return value, log_q


class ProposalController(Controller):
    """Draw from per-address proposal distributions q(x|y).

    ``proposal_provider(address, instance, prior, context)`` returns either a
    proposal to sample from or ``None`` to fall back to the prior.  The
    accumulated ``log_q`` (proposal) and ``log_prior`` terms give the
    importance weight ``log p(x,y) - log q(x|y)`` when combined with the
    trace's likelihood.

    The proposal is consumed purely through ``sample(rng)`` and
    ``log_prob(value)``, so providers may return full
    :class:`Distribution` objects (the sequential engine) or the
    :class:`repro.ppl.nn.inference_network.DrawnProposal` stubs of the
    lockstep engine, whose driver has already drawn and scored the value —
    the controller is deliberately agnostic between the two.
    """

    def __init__(
        self,
        proposal_provider: Callable[[str, int, Distribution, "ExecutionState"], Optional[Distribution]],
        state: Optional["ExecutionState"] = None,
    ) -> None:
        self.proposal_provider = proposal_provider
        self.state = state
        self.log_q = 0.0
        self.log_prior = 0.0
        self.num_proposed = 0

    def choose(self, address, instance, distribution, name, rng):
        proposal = self.proposal_provider(address, instance, distribution, self.state)
        if proposal is None:
            value = distribution.sample(rng)
            log_q = log_prior = log_prob_total(distribution, value)
        else:
            value = proposal.sample(rng)
            log_q = log_prob_total(proposal, value)
            log_prior = log_prob_total(distribution, value)
            self.num_proposed += 1
        self.log_q += log_q
        self.log_prior += log_prior
        self.last_log_prior = log_prior
        return value, log_q


class ExecutionState:
    """Tracks one execution of a probabilistic program."""

    def __init__(
        self,
        controller: Controller,
        rng: Optional[RandomState] = None,
        observed_values: Optional[Dict[str, Any]] = None,
        address_builder: Optional[AddressBuilder] = None,
    ) -> None:
        self.controller = controller
        self.rng = rng or get_rng()
        self.observed_values = observed_values or {}
        self.address_builder = address_builder or AddressBuilder()
        self.trace = Trace()
        self.log_q = 0.0           # total proposal log-density of latent draws
        self.log_prior = 0.0       # total prior log-density of latent draws
        self._address_counts: Dict[str, int] = {}
        # Tell the proposal controller (if any) which state it serves.
        if isinstance(controller, ProposalController) and controller.state is None:
            controller.state = self

    # ------------------------------------------------------------------ sample
    def do_sample(
        self,
        distribution: Distribution,
        name: Optional[str] = None,
        address: Optional[str] = None,
        control: bool = True,
    ):
        resolved = address or self.address_builder.build(skip_frames=3)
        instance = self._address_counts.get(resolved, 0)
        self._address_counts[resolved] = instance + 1
        if control:
            value, log_q = self.controller.choose(resolved, instance, distribution, name, self.rng)
            log_prior = self.controller.last_log_prior
            if log_prior is None:
                log_prior = log_prob_total(distribution, value)
        else:
            value = distribution.sample(self.rng)
            log_q = log_prior = log_prob_total(distribution, value)
        self.log_q += log_q
        self.log_prior += log_prior
        self.trace.add_sample(
            Sample(
                address=resolved,
                distribution=distribution,
                value=value,
                observed=False,
                log_prob=log_prior,
                controlled=control,
                name=name,
            )
        )
        return value

    # ----------------------------------------------------------------- observe
    def do_observe(
        self,
        distribution: Distribution,
        value: Any = None,
        name: Optional[str] = None,
        address: Optional[str] = None,
    ) -> Any:
        resolved = address or self.address_builder.build(skip_frames=3)
        key = name if name is not None else resolved
        if key in self.observed_values:
            scored_value = self.observed_values[key]
        else:
            scored_value = value if value is not None else distribution.sample(self.rng)
        log_prob = log_prob_total(distribution, scored_value)
        self.trace.add_sample(
            Sample(
                address=resolved,
                distribution=distribution,
                value=scored_value,
                observed=True,
                log_prob=log_prob,
                controlled=False,
                name=name,
            )
        )
        return scored_value

    # -------------------------------------------------------------- finalising
    def finalize(self, result: Any = None) -> Trace:
        observation: Dict[str, Any] = {}
        for sample_record in self.trace.observes:
            key = sample_record.name if sample_record.name is not None else sample_record.address
            observation[key] = sample_record.value
        self.trace.freeze(result=result, observation=observation)
        return self.trace

    @property
    def log_importance_weight(self) -> float:
        """log p(x, y) - log q(x) for the recorded execution."""
        return self.trace.log_joint - self.log_q


# ----------------------------------------------------------------------- globals
_state_stack: "threading.local" = threading.local()


def _stack() -> List[ExecutionState]:
    if not hasattr(_state_stack, "stack"):
        _state_stack.stack = []
    return _state_stack.stack


def push_state(state: ExecutionState) -> None:
    _stack().append(state)


def pop_state() -> ExecutionState:
    return _stack().pop()


def current_state() -> Optional[ExecutionState]:
    stack = _stack()
    return stack[-1] if stack else None


def sample(
    distribution: Distribution,
    name: Optional[str] = None,
    address: Optional[str] = None,
    control: bool = True,
):
    """Draw a random value inside a probabilistic program.

    Outside of an inference/tracing context this simply samples from the
    distribution, so generative code can also be run stand-alone.
    """
    state = current_state()
    if state is None:
        return distribution.sample(get_rng())
    return state.do_sample(distribution, name=name, address=address, control=control)


def observe(
    distribution: Distribution,
    value: Any = None,
    name: Optional[str] = None,
    address: Optional[str] = None,
):
    """Record a conditioning statement inside a probabilistic program."""
    state = current_state()
    if state is None:
        return value if value is not None else distribution.sample(get_rng())
    return state.do_observe(distribution, value=value, name=name, address=address)

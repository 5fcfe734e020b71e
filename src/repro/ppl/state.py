"""Execution state: the machinery behind ``sample`` and ``observe``.

:class:`ExecutionState` is the one record of an execution.  A local program (a
Python generative function) reaches it through :func:`sample` at every
random-number draw and :func:`observe` at every conditioning point; a remote
simulator speaking PPX reaches it through
:meth:`repro.ppx.server.SimulatorController.run_trace`, which answers each
``SampleRequest`` with :meth:`ExecutionState.do_sample` and records each
``ObserveRequest`` with :meth:`ExecutionState.do_observe`.  Either way the
state names each draw's address and instance, conditions observe statements
by name, sums the proposal and prior log-densities, and freezes the trace.

The value of each controlled draw is decided by a *controller*; different
inference engines plug in different controllers:

* :class:`PriorController` — draw from the prior (forward simulation /
  training-data generation),
* :class:`ReplayController` — reuse the values of an existing trace except at
  a chosen resample site (the single-site RMH/LMH kernel),
* :class:`ProposalController` — draw from per-address proposals q(x|y)
  (IC, where the proposals come from the trained NN).

Every controller also reports the log-density of its choice under the
distribution it actually sampled from, so that importance weights and MH
acceptance ratios can be formed exactly.  The state keeps the only tallies.
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
    "DrawnProposal",
    "sample",
    "observe",
    "current_state",
    "check_observed_keys",
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
                return value, log_q
        value = distribution.sample(rng)
        log_q = self.last_log_prior = log_prob_total(distribution, value)
        return value, log_q


class DrawnProposal:
    """A proposal answer already drawn and scored: ``(value, log_q, log_prior)``.

    The lockstep engine's session draws and scores a whole round on the
    driver — the proposal values on the very rng objects the suspended
    executions own, their proposal densities and their priors' densities —
    and answers each slot with one of these, so the slot's side of a draw is
    post, wait, take the three numbers: :class:`ProposalController` reads
    them off and runs no ``sample`` or ``log_prob`` on the slot's thread.
    ``log_prior`` is ``log_prob_total(prior, value)`` bit for bit; ``None``
    leaves the prior to be scored by the execution state.  The stub still
    answers to the proposal duck type (``sample`` returns the stored value
    without touching a stream, ``log_prob`` the stored density), and is never
    recorded in the trace — ``ExecutionState.do_sample`` stores the *prior*.
    """

    __slots__ = ("value", "log_q", "log_prior")

    def __init__(self, value, log_q: float, log_prior: Optional[float] = None) -> None:
        self.value = value
        self.log_q = log_q
        self.log_prior = log_prior

    def sample(self, rng=None, size=None):
        return self.value

    def log_prob(self, value):
        return self.log_q


class ProposalController(Controller):
    """Draw from per-address proposals q(x|y).

    ``provider(address, instance, prior)`` returns a proposal, a
    :class:`DrawnProposal`, or ``None`` to fall back to the prior.  The
    execution state sums the ``log_q`` this controller reports and the prior
    density, which give the importance weight ``log p(x,y) - log q(x|y)``
    with the trace's likelihood.

    In the engine every answer is a :class:`DrawnProposal` from a
    :class:`repro.ppl.nn.inference_network.BatchedProposalSession`: value,
    ``log_q`` and ``log_prior`` are taken as they are, and the execution's
    stream is not touched (the driver already drew on it).  Any other
    proposal is consumed through ``sample(rng)`` and ``log_prob(value)``.
    """

    def __init__(self, provider: Callable[[str, int, Distribution], Any]) -> None:
        self.provider = provider

    def choose(self, address, instance, distribution, name, rng):
        proposal = self.provider(address, instance, distribution)
        if proposal is None:
            value = distribution.sample(rng)
            log_q = self.last_log_prior = log_prob_total(distribution, value)
            return value, log_q
        if type(proposal) is DrawnProposal:
            self.last_log_prior = proposal.log_prior
            return proposal.value, proposal.log_q
        value = proposal.sample(rng)
        log_q = log_prob_total(proposal, value)
        self.last_log_prior = log_prob_total(distribution, value)
        return value, log_q


class ExecutionState:
    """The record of one execution of a probabilistic program, local or remote.

    ``do_sample`` and ``do_observe`` take the statement's address when the
    caller has one (a PPX message carries the simulator's); otherwise the
    address is built from the calling program's stack.
    """

    def __init__(
        self,
        controller: Controller,
        rng: Optional[RandomState] = None,
        observed_values: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.controller = controller
        self.rng = rng or get_rng()
        self.observed_values = observed_values or {}
        self.address_builder = AddressBuilder()
        self.trace = Trace()
        self.log_q = 0.0           # total proposal log-density of latent draws
        self.log_prior = 0.0       # total prior log-density of latent draws
        self._address_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------ sample
    def do_sample(
        self,
        distribution: Distribution,
        name: Optional[str] = None,
        address: Optional[str] = None,
        control: bool = True,
    ):
        resolved = address if address is not None else self.address_builder.build(skip_frames=3)
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
        resolved = address if address is not None else self.address_builder.build(skip_frames=3)
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


def check_observed_keys(observed_values: Optional[Dict[str, Any]], trace: Trace) -> None:
    """Refuse an ``observed_values`` key that no observe statement of ``trace`` consumed.

    An observe statement is conditioned on ``observed_values[name]`` (its
    address when unnamed) and any other is scored at its own value, so a
    misspelt key would give prior-predictive weights without a word.  The
    engines check each execution where they use its trace (weights, an MH
    step), not inside it: a raise in one slot of a lockstep cohort would fail
    every request sharing the cohort.
    """
    unused = [key for key in observed_values or () if key not in trace.observation]
    if unused:
        raise ValueError(
            f"observed_values key(s) {unused} match no observe statement; "
            f"the execution observed {sorted(trace.observation)}"
        )


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

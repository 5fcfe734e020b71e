"""Importance sampling over execution traces.

The basic IS engine: run the simulator ``num_traces`` times, drawing latents
either from the prior (``proposal_provider=None``) or from per-address
proposal distributions q(x|y) (the IC case), and weight each trace by

    log w = log p(x, y) - log q(x)
          = log_prior(x) + log_likelihood(y | x) - log q(x).

When sampling from the prior the prior terms cancel and the weight reduces to
the likelihood, which is the classic likelihood-weighting special case.

``log q(x)`` is the *execution-state-level* total accumulated over **all**
latent draws: controlled draws contribute the density of whatever proposal
(or prior) the controller chose, and uncontrolled (``control=False``) draws
contribute their prior density, so their prior terms inside ``log p(x, y)``
cancel exactly.  Using the controller's controlled-draws-only total instead
would leave uncontrolled prior terms dangling in the weight — this is the
accounting both the proposal and prior branches below share via
``trace.log_q``.

IS/IC inference is embarrassingly parallel; the batched lockstep engine in
:mod:`repro.ppl.inference.batched` runs cohorts of guided executions through
the inference network in single batched NN steps, and
:class:`repro.serving.PosteriorService` spreads those cohorts over worker
threads or processes (:func:`repro.ppl.inference.batched.execute_trace_jobs`
is the one call every executor makes).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.common.rng import RandomState, get_rng
from repro.ppl.empirical import Empirical
from repro.ppl.state import PriorController, ProposalController
from repro.trace.trace import Trace

__all__ = ["importance_sampling"]


def importance_sampling(
    model,
    observation: Dict[str, Any],
    num_traces: int = 1000,
    proposal_provider: Optional[Callable] = None,
    rng: Optional[RandomState] = None,
    trace_callback: Optional[Callable[[Trace, float], None]] = None,
) -> Empirical:
    """Run importance sampling and return a weighted Empirical over traces.

    Parameters
    ----------
    model:
        A :class:`repro.ppl.model.Model` (local or remote).
    observation:
        Mapping from observe-statement name to the observed value y.
    num_traces:
        Number of simulator executions.
    proposal_provider:
        Optional callable ``(address, instance, prior, state) -> Distribution``
        supplying proposal distributions (used by IC); ``None`` means prior
        proposals (likelihood weighting).
    trace_callback:
        Optional hook called with ``(trace, log_weight)`` after every
        execution.
    """
    if num_traces <= 0:
        raise ValueError("num_traces must be positive")
    rng = rng or get_rng()
    traces: List[Trace] = []
    log_weights: List[float] = []
    for _ in range(num_traces):
        if proposal_provider is None:
            controller: PriorController | ProposalController = PriorController()
        else:
            controller = ProposalController(proposal_provider)
        trace = model.get_trace(controller, observed_values=observation, rng=rng)
        # Both branches use the same ExecutionState-level accounting: the
        # trace-wide log_q includes uncontrolled draws' prior densities, which
        # cancel against the matching prior terms inside log_joint.
        log_q = getattr(trace, "log_q", None)
        if log_q is None:
            # Model subclass that didn't record trace.log_q: reconstruct the
            # state-level total — controlled draws from the controller,
            # uncontrolled draws' prior terms from the trace.
            if isinstance(controller, ProposalController):
                log_q = controller.log_q + (trace.log_prior - controller.log_prior)
            else:
                log_q = trace.log_prior
        log_weight = trace.log_joint - log_q
        traces.append(trace)
        log_weights.append(log_weight)
        if trace_callback is not None:
            trace_callback(trace, log_weight)
    return Empirical(traces, log_weights, name="importance_sampling_posterior")

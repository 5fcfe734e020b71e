"""Importance sampling over execution traces, with prior proposals.

The basic IS engine behind ``Model.posterior(engine="importance_sampling")``:
run the simulator ``num_traces`` times, drawing every latent from its prior,
and weight each trace by

    log w = log p(x, y) - log q(x)
          = log_prior(x) + log_likelihood(y | x) - log q(x).

With prior proposals the prior terms cancel and the weight reduces to the
likelihood, which is the classic likelihood-weighting special case.

``log q(x)`` is the *execution-state-level* total ``trace.log_q``
accumulated over **all** latent draws, and the weights are formed by
:func:`repro.ppl.inference.batched.form_log_weights`, the one weight
formation the guided engine shares.

Guided importance sampling (IC, proposals from the trained network) is the
batched lockstep engine in :mod:`repro.ppl.inference.batched`, which runs
cohorts of guided executions through the inference network in single
batched NN steps; :class:`repro.serving.PosteriorService` spreads those
cohorts over worker threads or processes
(:func:`repro.ppl.inference.batched.execute_trace_jobs` is the one call
every executor makes).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.common.rng import RandomState, get_rng
from repro.ppl.empirical import Empirical
from repro.ppl.inference.batched import form_log_weights
from repro.ppl.state import PriorController

__all__ = ["importance_sampling"]


def importance_sampling(
    model,
    observation: Dict[str, Any],
    num_traces: int = 1000,
    rng: Optional[RandomState] = None,
) -> Empirical:
    """Run likelihood-weighting importance sampling; a weighted Empirical over traces.

    Parameters
    ----------
    model:
        A :class:`repro.ppl.model.Model` (local or remote).
    observation:
        Mapping from observe-statement name to the observed value y.
    num_traces:
        Number of simulator executions, all drawing from ``rng`` in turn.
    """
    if num_traces <= 0:
        raise ValueError("num_traces must be positive")
    rng = rng or get_rng()
    traces = [
        model.get_trace(PriorController(), observed_values=observation, rng=rng)
        for _ in range(num_traces)
    ]
    log_weights = form_log_weights(traces, None, observation=observation)
    return Empirical(traces, log_weights, name="importance_sampling_posterior")

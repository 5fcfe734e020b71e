"""Models: local generative functions and remote PPX-controlled simulators.

A *model* specifies the joint distribution p(x, y) as a forward program.  Two
deployment shapes are supported, exactly as in the paper:

* :class:`Model` / :class:`FunctionModel` — the program is Python code in this
  process, calling :func:`repro.ppl.sample` and :func:`repro.ppl.observe`.
* :class:`RemoteModel` — the program is an *existing simulator* in another
  process (our stand-in for Sherpa), controlled over the PPX protocol; the
  PPL never imports or modifies the simulator.

Both produce :class:`repro.trace.Trace` objects through the same controller
interface, so every inference engine works with either.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.common.rng import RandomState, get_rng
from repro.distributions import distribution_from_dict, log_prob_total
from repro.ppl.state import (
    Controller,
    ExecutionState,
    PriorController,
    pop_state,
    push_state,
)
from repro.ppx.server import SimulatorController
from repro.ppx.transport import Transport
from repro.trace.trace import Trace

__all__ = ["Model", "FunctionModel", "RemoteModel"]


class Model:
    """Base class for local probabilistic programs.

    Subclasses override :meth:`forward`, which expresses the generative
    process with :func:`repro.ppl.sample` / :func:`repro.ppl.observe` calls
    and returns an arbitrary result object.
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name

    # ----------------------------------------------------------------- program
    def forward(self) -> Any:  # pragma: no cover - abstract
        raise NotImplementedError

    # ------------------------------------------------------------------ traces
    def get_trace(
        self,
        controller: Optional[Controller] = None,
        observed_values: Optional[Dict[str, Any]] = None,
        rng: Optional[RandomState] = None,
    ) -> Trace:
        """Execute the program once under ``controller`` and return its trace."""
        state = ExecutionState(
            controller=controller or PriorController(),
            rng=rng or get_rng(),
            observed_values=observed_values,
        )
        push_state(state)
        try:
            __ppl_model_entry__ = True  # noqa: F841 - stack marker for address building
            result = self.forward()
        finally:
            pop_state()
        trace = state.finalize(result=result)
        trace.log_q = state.log_q  # type: ignore[attr-defined]
        return trace

    def prior_trace(self, rng: Optional[RandomState] = None) -> Trace:
        """One forward execution with all latents drawn from the prior."""
        return self.get_trace(PriorController(), rng=rng)

    def prior_traces(self, num_traces: int, rng: Optional[RandomState] = None) -> List[Trace]:
        """A list of independent prior executions (training data for IC)."""
        rng = rng or get_rng()
        return [self.prior_trace(rng) for _ in range(num_traces)]

    # --------------------------------------------------------------- inference
    def posterior(
        self,
        observation: Dict[str, Any],
        num_traces: int = 1000,
        engine: str = "importance_sampling",
        rng: Optional[RandomState] = None,
        **engine_kwargs,
    ):
        """Convenience dispatcher to the inference engines.

        ``engine`` is one of ``"importance_sampling"``, ``"random_walk_metropolis"``
        (aliases ``"rmh"``, ``"lightweight_metropolis_hastings"``, ``"lmh"``), or an
        :class:`repro.ppl.inference.inference_compilation.InferenceCompilation`
        instance for amortized IC inference.
        """
        from repro.ppl.inference import importance_sampling, random_walk_metropolis
        from repro.ppl.inference.inference_compilation import InferenceCompilation

        if isinstance(engine, InferenceCompilation):
            return engine.posterior(self, observation, num_traces=num_traces, rng=rng, **engine_kwargs)
        if engine == "importance_sampling":
            return importance_sampling.importance_sampling(
                self, observation, num_traces=num_traces, rng=rng, **engine_kwargs
            )
        if engine in ("random_walk_metropolis", "rmh", "lightweight_metropolis_hastings", "lmh"):
            kernel = "prior" if engine in ("lightweight_metropolis_hastings", "lmh") else "random_walk"
            engine_kwargs.setdefault("kernel", kernel)
            sampler = random_walk_metropolis.RandomWalkMetropolis(self, observation, **engine_kwargs)
            return sampler.run(num_traces, rng=rng)
        raise ValueError(f"unknown inference engine {engine!r}")


class FunctionModel(Model):
    """Wrap a plain generative function ``fn(*args, **kwargs)`` as a model."""

    def __init__(self, fn: Callable[..., Any], name: Optional[str] = None, args: tuple = (), kwargs: Optional[dict] = None) -> None:
        super().__init__(name=name or fn.__name__)
        self.fn = fn
        self.args = args
        self.kwargs = kwargs or {}

    def forward(self) -> Any:
        return self.fn(*self.args, **self.kwargs)


class _RemoteSamplePolicy:
    """Answers the sample requests of one remote trace through a controller.

    Every draw advances the per-address instance counter (the trace records
    all of them), but uncontrolled (``control=False``) draws never reach the
    controller — mirror the local :class:`ExecutionState`: draw from the prior
    and accumulate its density into ``log_q`` so the matching prior term in
    ``log_joint`` cancels out of importance weights.  Either way the prior is
    scored once: ``last_log_prior`` hands the number to
    :meth:`SimulatorController.run_trace` for the trace record.
    """

    def __init__(self, controller: Controller, rng: RandomState) -> None:
        self.controller = controller
        self.rng = rng
        self.counts: Dict[str, int] = {}
        self.log_q = 0.0
        self.last_log_prior: Optional[float] = None

    def __call__(self, address, distribution, request):
        instance = self.counts.get(address, 0)
        self.counts[address] = instance + 1
        if getattr(request, "control", True):
            value, log_q = self.controller.choose(address, instance, distribution, request.name, self.rng)
            self.last_log_prior = self.controller.last_log_prior
        else:
            value = distribution.sample(self.rng)
            log_q = self.last_log_prior = log_prob_total(distribution, value)
        self.log_q += log_q
        return value


class RemoteModel(Model):
    """A model implemented by an external simulator controlled over PPX.

    The remote simulator calls ``client.sample`` / ``client.observe`` on its
    side of the protocol; this class translates the controller interface used
    by the inference engines into PPX message exchanges.

    Notes
    -----
    The observation override works differently from local models: remote
    simulators report the value they generated at each observe statement, and
    the controller swaps in the conditioned value (keyed by observe ``name``)
    when scoring the likelihood.
    """

    def __init__(
        self,
        transport: Transport,
        name: str = "remote-model",
        run_timeout: Optional[float] = None,
    ) -> None:
        super().__init__(name=name)
        self.controller = SimulatorController(transport)
        #: bound on every wait for a simulator reply; None blocks indefinitely
        self.run_timeout = run_timeout

    def forward(self) -> Any:  # pragma: no cover - remote models never run locally
        raise RuntimeError("RemoteModel executes in the simulator process, not locally")

    def get_trace(
        self,
        controller: Optional[Controller] = None,
        observed_values: Optional[Dict[str, Any]] = None,
        rng: Optional[RandomState] = None,
    ) -> Trace:
        observed_values = observed_values or {}
        sample_policy = _RemoteSamplePolicy(controller or PriorController(), rng or get_rng())
        # Figure out the likelihood override: a single observed value applies
        # to the simulator's (single) observe statement; a dict is keyed by name.
        observe_override = None
        if observed_values:
            if len(observed_values) == 1:
                observe_override = next(iter(observed_values.values()))
            else:
                raise NotImplementedError(
                    "RemoteModel currently supports conditioning on a single observe statement"
                )
        trace = self.controller.run_trace(
            sample_policy=sample_policy,
            observation=None,
            observe_override=observe_override,
            timeout=self.run_timeout,
        )
        # Normalise trace.observation to the same dict form local models use.
        observation: Dict[str, Any] = {}
        for sample_record in trace.observes:
            key = sample_record.name if sample_record.name is not None else sample_record.address
            observation[key] = sample_record.value
        trace.observation = observation
        trace.log_q = sample_policy.log_q  # type: ignore[attr-defined]
        return trace

    def shutdown(self) -> None:
        """Terminate the remote simulator."""
        self.controller.shutdown()

"""Models: local generative functions and remote PPX-controlled simulators.

A *model* specifies the joint distribution p(x, y) as a forward program.  Two
deployment shapes are supported, exactly as in the paper:

* :class:`Model` / :class:`FunctionModel` — the program is Python code in this
  process, calling :func:`repro.ppl.sample` and :func:`repro.ppl.observe`.
* :class:`RemoteModel` — the program is an *existing simulator* in another
  process (our stand-in for Sherpa), controlled over the PPX protocol; the
  PPL never imports or modifies the simulator.

Both run under one :class:`repro.ppl.state.ExecutionState` per execution, so a
simulator's ``sample`` and ``observe`` calls become the PPL's own statements:
the same controllers decide the draws, observe statements are conditioned by
name, and :meth:`Model.get_trace` returns the same trace for either.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.common.rng import RandomState, get_rng
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
        trace = state.finalize(result=self._execute(state))
        trace.log_q = state.log_q  # type: ignore[attr-defined]
        return trace

    def _execute(self, state: ExecutionState) -> Any:
        """Run the program once, recording into ``state``; returns its result."""
        push_state(state)
        try:
            __ppl_model_entry__ = True  # noqa: F841 - stack marker for address building
            return self.forward()
        finally:
            pop_state()

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

        ``engine`` is one of ``"importance_sampling"`` (prior proposals through
        :func:`repro.ppl.inference.batched.batched_importance_sampling`),
        ``"random_walk_metropolis"`` (aliases ``"rmh"``,
        ``"lightweight_metropolis_hastings"``, ``"lmh"``), or an
        :class:`repro.ppl.inference.inference_compilation.InferenceCompilation`
        instance for amortized IC inference.
        """
        from repro.ppl.inference import batched, random_walk_metropolis
        from repro.ppl.inference.inference_compilation import InferenceCompilation

        if isinstance(engine, InferenceCompilation):
            return engine.posterior(self, observation, num_traces=num_traces, rng=rng, **engine_kwargs)
        if engine == "importance_sampling":
            if engine_kwargs:
                raise TypeError(f"prior importance sampling takes no options, got {sorted(engine_kwargs)}")
            return batched.batched_importance_sampling(self, observation, num_traces=num_traces, rng=rng)
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


class RemoteModel(Model):
    """A model implemented by an external simulator controlled over PPX.

    The remote simulator calls ``client.sample`` / ``client.observe`` on its
    side of the protocol.  Each execution runs under an
    :class:`~repro.ppl.state.ExecutionState`, exactly as a local program does:
    the controller decides every controlled draw, and an observe statement is
    conditioned on ``observed_values[name]`` (its address when unnamed) — any
    number of them — while an unconditioned one is scored at the value the
    simulator reported.
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

    def _execute(self, state: ExecutionState) -> Any:
        return self.controller.run_trace(state, timeout=self.run_timeout)

    def shutdown(self) -> None:
        """Terminate the remote simulator."""
        self.controller.shutdown()

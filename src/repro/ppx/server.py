"""PPX PPL-side controller.

The PPL side of the protocol (Figure 1, right-hand column): it accepts the
simulator's handshake, issues ``Run`` requests, and answers every
``SampleRequest`` / ``ObserveRequest`` the simulator emits during a run.  The
*policy* for answering sample requests (draw from the prior, replay a stored
value, draw from an IC proposal, ...) is supplied by the inference engine as a
callback, so the same controller serves prior sampling, RMH and IC inference.
"""

from __future__ import annotations

import queue
import socket
from typing import Any, Callable, Optional

import numpy as np

from repro.distributions import distribution_from_dict
from repro.ppx.messages import (
    Handshake,
    HandshakeResult,
    ObserveRequest,
    ObserveResult,
    Run,
    RunResult,
    SampleRequest,
    SampleResult,
    ShutdownRequest,
    ShutdownResult,
)
from repro.ppx.transport import Transport
from repro.trace.sample import Sample
from repro.trace.trace import Trace

__all__ = ["SimulatorController"]

#: signature of the sample-policy callback: (address, distribution, request) -> value.
#: A policy that scores the prior anyway exposes the number as a
#: ``last_log_prior`` attribute, set on every call (as a PPL ``Controller``
#: does), and the trace records it instead of scoring the draw a second time.
SamplePolicy = Callable[[str, Any, SampleRequest], Any]


class SimulatorController:
    """Controls a remote simulator over PPX and records execution traces."""

    def __init__(self, transport: Transport) -> None:
        self.transport = transport
        self.simulator_name: Optional[str] = None
        self.model_name: Optional[str] = None
        self._handshaken = False

    def _receive(self, timeout: Optional[float], waiting_for: str):
        """Receive one message, converting transport-level timeouts.

        Each transport has its own timeout signal (``queue.Empty`` for the
        in-process queue pair, ``socket.timeout`` for framed sockets); a
        simulator that hangs mid-protocol must surface as a clear
        :class:`TimeoutError` naming what the controller was waiting for,
        not as a transport internal — or, with no timeout, as a silent
        forever-block.
        """
        try:
            return self.transport.receive(timeout=timeout)
        except (queue.Empty, socket.timeout, TimeoutError) as exc:
            raise TimeoutError(
                f"simulator did not respond within {timeout}s while the "
                f"controller was waiting for {waiting_for}"
            ) from exc

    # ------------------------------------------------------------- handshake
    def accept_handshake(self, timeout: Optional[float] = None) -> None:
        message = self._receive(timeout, "its Handshake message")
        if not isinstance(message, Handshake):
            raise RuntimeError(f"expected Handshake, got {type(message).__name__}")
        self.simulator_name = message.system_name
        self.model_name = message.model_name
        self.transport.send(HandshakeResult(accepted=True))
        self._handshaken = True

    # ------------------------------------------------------------------- run
    def run_trace(
        self,
        sample_policy: SamplePolicy,
        observation: Any = None,
        observe_override: Optional[Any] = None,
        timeout: Optional[float] = None,
    ) -> Trace:
        """Execute the simulator once and return the recorded trace.

        ``sample_policy`` decides the value for every latent draw.
        ``observe_override`` (if given) replaces the simulator-reported value
        at observe statements when scoring the likelihood — this is how an
        actual detector observation is conditioned on while the simulator
        still produces its own synthetic output.
        ``timeout`` bounds every wait on the simulator (the handshake and each
        protocol message of the run); a simulator that stops responding raises
        :class:`TimeoutError` instead of blocking the controller forever.
        """
        if not self._handshaken:
            self.accept_handshake(timeout=timeout)
        trace = Trace()
        self.transport.send(Run(observation=observation))
        while True:
            message = self._receive(timeout, "the next message of its Run")
            if isinstance(message, SampleRequest):
                distribution = distribution_from_dict(message.distribution)
                value = sample_policy(message.address, distribution, message)
                log_prob = getattr(sample_policy, "last_log_prior", None)
                if log_prob is None:
                    log_prob = float(np.sum(distribution.log_prob(value)))
                trace.add_sample(
                    Sample(
                        address=message.address,
                        distribution=distribution,
                        value=value,
                        observed=False,
                        log_prob=log_prob,
                        controlled=message.control,
                        name=message.name,
                    )
                )
                self.transport.send(SampleResult(value=value))
            elif isinstance(message, ObserveRequest):
                distribution = distribution_from_dict(message.distribution)
                scored_value = observe_override if observe_override is not None else message.value
                log_prob = float(np.sum(distribution.log_prob(scored_value)))
                trace.add_sample(
                    Sample(
                        address=message.address,
                        distribution=distribution,
                        value=scored_value,
                        observed=True,
                        log_prob=log_prob,
                        controlled=False,
                        name=message.name,
                    )
                )
                self.transport.send(ObserveResult())
            elif isinstance(message, RunResult):
                if not message.success:
                    raise RuntimeError(f"simulator failed: {message.error}")
                trace.freeze(result=message.result, observation=observation)
                return trace
            else:
                raise RuntimeError(f"unexpected PPX message {type(message).__name__}")

    # -------------------------------------------------------------- shutdown
    def shutdown(self) -> None:
        try:
            # A simulator that connected but never ran is still blocked in its
            # handshake; complete it so the shutdown request is understood.
            if not self._handshaken:
                self.accept_handshake(timeout=5.0)
            self.transport.send(ShutdownRequest())
            reply = self._receive(5.0, "its ShutdownResult")
            if not isinstance(reply, ShutdownResult):  # pragma: no cover - defensive
                raise RuntimeError("unexpected reply to shutdown")
        finally:
            self.transport.close()

"""PPX PPL-side controller.

The PPL side of the protocol (Figure 1, right-hand column): it accepts the
simulator's handshake, issues ``Run`` requests, and turns every
``SampleRequest`` / ``ObserveRequest`` the simulator emits during a run into
the PPL's own statement on an execution state
(:class:`repro.ppl.state.ExecutionState`, taken duck-typed: ``do_sample`` and
``do_observe``).  The state's controller decides each draw (prior, replay, IC
proposal, ...) and the state records the trace, so the same controller serves
prior sampling, RMH and IC inference, and a remote trace is built exactly as
a local one.
"""

from __future__ import annotations

import queue
import socket
from typing import Any, Optional

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

__all__ = ["SimulatorController"]


class SimulatorController:
    """Controls a remote simulator over PPX, one run per execution state."""

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
    def run_trace(self, state, timeout: Optional[float] = None) -> Any:
        """Execute the simulator once under ``state`` and return its result.

        Each ``SampleRequest`` is answered with ``state.do_sample`` and each
        ``ObserveRequest`` recorded with ``state.do_observe``, at the address,
        name and control flag the simulator sent; the caller freezes the
        state's trace.  ``timeout`` bounds every wait on the simulator (the
        handshake and each protocol message of the run); a simulator that
        stops responding raises :class:`TimeoutError` instead of blocking the
        controller forever.
        """
        if not self._handshaken:
            self.accept_handshake(timeout=timeout)
        self.transport.send(Run())
        while True:
            message = self._receive(timeout, "the next message of its Run")
            if isinstance(message, SampleRequest):
                value = state.do_sample(
                    distribution_from_dict(message.distribution),
                    name=message.name,
                    address=message.address,
                    control=message.control,
                )
                self.transport.send(SampleResult(value=value))
            elif isinstance(message, ObserveRequest):
                state.do_observe(
                    distribution_from_dict(message.distribution),
                    value=message.value,
                    name=message.name,
                    address=message.address,
                )
                self.transport.send(ObserveResult())
            elif isinstance(message, RunResult):
                if not message.success:
                    raise RuntimeError(f"simulator failed: {message.error}")
                return message.result
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

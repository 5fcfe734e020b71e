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

A simulator sends the same few ``SampleRequest`` frames over and over (2 000
tau traces make 22 136 draws from 17 distinct frames), so the controller
decodes each distinct frame once: its request cache maps the exact body
bytes to the decoded address, name, control flag and one prior built from
them, which every later repeat shares.  The prior's arrays are made
read-only, so no holder of a trace can change another trace's prior.
"""

from __future__ import annotations

import queue
import socket
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.distributions import Distribution, distribution_from_dict
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
from repro.ppx.serialization import decode_message, message_head
from repro.ppx.transport import Transport

__all__ = ["SimulatorController"]

#: Bounds of one controller's request cache, in entries and in body bytes;
#: past either, the oldest entries go.  A simulator whose priors never change
#: stays far below both (tau: 17 entries, 6.6 kB).
_CACHE_MAX_ENTRIES = 1024
_CACHE_MAX_BYTES = 1 << 20
_SAMPLE_HEAD = message_head(SampleRequest)

#: (address, name, control, prior) of one SampleRequest frame
_Request = Tuple[str, Optional[str], bool, Distribution]


def _read_only(value: Any) -> None:
    """Mark every array ``value`` holds — a distribution's, recursively — read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, Distribution):
        _read_only(vars(value))
    elif isinstance(value, dict):
        for item in value.values():
            _read_only(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _read_only(item)


class SimulatorController:
    """Controls a remote simulator over PPX, one run per execution state."""

    def __init__(self, transport: Transport) -> None:
        self.transport = transport
        self.simulator_name: Optional[str] = None
        self.model_name: Optional[str] = None
        self._handshaken = False
        # SampleRequest body -> its decoded request, oldest first
        self._requests: Dict[bytes, _Request] = {}
        self._request_bytes = 0

    def _receive(self, timeout: Optional[float], waiting_for: str):
        """Receive one message body, converting transport-level timeouts.

        Each transport has its own timeout signal (``queue.Empty`` for the
        in-process queue pair, ``socket.timeout`` for framed sockets); a
        simulator that hangs mid-protocol must surface as a clear
        :class:`TimeoutError` naming what the controller was waiting for,
        not as a transport internal — or, with no timeout, as a silent
        forever-block.
        """
        try:
            return self.transport.receive_frame(timeout=timeout)
        except (queue.Empty, socket.timeout, TimeoutError) as exc:
            raise TimeoutError(
                f"simulator did not respond within {timeout}s while the "
                f"controller was waiting for {waiting_for}"
            ) from exc

    # ------------------------------------------------------------- handshake
    def accept_handshake(self, timeout: Optional[float] = None) -> None:
        message = decode_message(self._receive(timeout, "its Handshake message"))
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
        controller forever.  A repeated ``SampleRequest`` frame is not decoded
        again: its draw gets the request and the prior cached for the frame.
        """
        if not self._handshaken:
            self.accept_handshake(timeout=timeout)
        self.transport.send(Run())
        while True:
            body = self._receive(timeout, "the next message of its Run")
            key = bytes(body) if body[: len(_SAMPLE_HEAD)] == _SAMPLE_HEAD else None
            request = self._requests.get(key)
            if request is None:
                message = decode_message(body)
                if isinstance(message, SampleRequest):
                    request = self._remember(key, message)
            if request is not None:
                address, name, control, prior = request
                value = state.do_sample(prior, name=name, address=address, control=control)
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

    def _remember(self, key: Optional[bytes], message: SampleRequest) -> _Request:
        """Build ``message``'s request and cache it under its frame ``key``.

        Only a request that builds is cached, so a frame that fails raises
        on every arrival; ``key`` is ``None`` for a frame that does not begin
        as this package encodes a SampleRequest, which is built but not kept.
        """
        prior = distribution_from_dict(message.distribution)
        request = (message.address, message.name, message.control, prior)
        if key is None or len(key) > _CACHE_MAX_BYTES:
            return request
        _read_only(prior)
        self._requests[key] = request
        self._request_bytes += len(key)
        while len(self._requests) > _CACHE_MAX_ENTRIES or self._request_bytes > _CACHE_MAX_BYTES:
            oldest = next(iter(self._requests))
            del self._requests[oldest]
            self._request_bytes -= len(oldest)
        return request

    # -------------------------------------------------------------- shutdown
    def shutdown(self) -> None:
        try:
            # A simulator that connected but never ran is still blocked in its
            # handshake; complete it so the shutdown request is understood.
            if not self._handshaken:
                self.accept_handshake(timeout=5.0)
            self.transport.send(ShutdownRequest())
            reply = decode_message(self._receive(5.0, "its ShutdownResult"))
            if not isinstance(reply, ShutdownResult):  # pragma: no cover - defensive
                raise RuntimeError("unexpected reply to shutdown")
        finally:
            self.transport.close()

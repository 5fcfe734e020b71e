"""PPX simulator-side binding.

This is the counterpart of the paper's C++ front end: a thin layer that a
stochastic simulator links against in order to route its random-number draws
and conditioning statements to the PPL over the protocol (Section 4.1).  In
this reproduction the "foreign" simulator is a Python callable, possibly in a
separate process connected over a socket, but the binding exposes exactly the
operations a C++ simulator would: ``sample(distribution)`` and
``observe(distribution, value)``.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.common.rng import get_rng
from repro.distributions import Distribution
from repro.ppx.addresses import AddressBuilder
from repro.ppx.messages import (
    Handshake,
    HandshakeResult,
    ObserveRequest,
    ObserveResult,
    Reset,
    Run,
    RunResult,
    SampleRequest,
    SampleResult,
    ShutdownRequest,
    ShutdownResult,
)
from repro.ppx.transport import Transport

__all__ = ["SimulatorClient"]


class SimulatorClient:
    """The simulator's handle on the PPX connection.

    Parameters
    ----------
    transport:
        A connected :class:`repro.ppx.transport.Transport`.
    simulator:
        A callable ``simulator(client) -> result`` that expresses
        the stochastic program by calling :meth:`sample` and :meth:`observe`
        on the ``client`` it receives.
    system_name / model_name:
        Identification strings sent in the handshake (e.g. ``"sherpa"``,
        ``"tau-decay"``).
    connect:
        Optional zero-argument factory returning a fresh connected
        :class:`~repro.ppx.transport.Transport` (e.g. ``lambda:
        connect_tcp(host, port)``).  When given, a dropped connection inside
        :meth:`serve_forever` is survived: the old transport is closed, the
        factory dials a new one, the handshake is re-run, and serving
        resumes — up to ``max_reconnects`` times.  Without it, connection
        loss propagates to the caller as before.
    """

    def __init__(
        self,
        transport: Transport,
        simulator: Callable[["SimulatorClient"], Any],
        system_name: str = "repro-simulator",
        model_name: str = "model",
        connect: Optional[Callable[[], Transport]] = None,
        max_reconnects: int = 3,
    ) -> None:
        self.transport = transport
        self.simulator = simulator
        self.system_name = system_name
        self.model_name = model_name
        self.connect = connect
        self.max_reconnects = int(max_reconnects)
        self.reconnects = 0
        self.address_builder = AddressBuilder()
        self._running = False

    # ------------------------------------------------------------ sample/observe
    def sample(
        self,
        distribution: Distribution,
        name: Optional[str] = None,
        address: Optional[str] = None,
        control: bool = True,
        replace: bool = False,
    ):
        """Request a value for a random draw from the controlling PPL."""
        resolved = address or self.address_builder.build(skip_frames=2)
        request = SampleRequest(
            address=resolved,
            distribution=distribution.to_dict(),
            name=name,
            control=control,
            replace=replace,
        )
        self.transport.send(request)
        reply = self.transport.receive()
        if not isinstance(reply, SampleResult):
            raise RuntimeError(f"expected SampleResult, got {type(reply).__name__}")
        return reply.value

    def observe(
        self,
        distribution: Distribution,
        value=None,
        name: Optional[str] = None,
        address: Optional[str] = None,
    ):
        """Report a conditioning statement (likelihood term) to the PPL.

        The protocol carries a value with every observe, so when the program
        supplies none the observation is simulated here, on the simulator
        side, from this process's stream.  Returns the reported value, as
        :class:`repro.simulators.handle.LocalHandle` returns the scored one.
        """
        resolved = address or self.address_builder.build(skip_frames=2)
        if value is None:
            value = distribution.sample(get_rng())
        request = ObserveRequest(
            address=resolved,
            distribution=distribution.to_dict(),
            value=value,
            name=name,
        )
        self.transport.send(request)
        reply = self.transport.receive()
        if not isinstance(reply, ObserveResult):
            raise RuntimeError(f"expected ObserveResult, got {type(reply).__name__}")
        return value

    # ----------------------------------------------------------------- serving
    def handshake(self) -> None:
        self.transport.send(
            Handshake(system_name=self.system_name, model_name=self.model_name, language="python")
        )
        reply = self.transport.receive()
        if not isinstance(reply, HandshakeResult) or not reply.accepted:
            raise RuntimeError("PPX handshake rejected by the PPL side")

    def serve_forever(self) -> None:
        """Handshake, then answer Run requests until a shutdown arrives.

        With a ``connect`` factory, a connection drop (EOF, reset, injected
        disconnect) is handled by dialing a fresh transport and re-running the
        handshake; any half-served Run is abandoned — the PPL side owns retry
        of the trace, this side only restores the session.
        """
        self.handshake()
        self._running = True
        while self._running:
            try:
                self._serve_one()
            except (ConnectionError, OSError):
                if not self._running:
                    return
                if self.connect is None or self.reconnects >= self.max_reconnects:
                    raise
                self.reconnects += 1
                self._reconnect()

    def _reconnect(self) -> None:
        try:
            self.transport.close()
        except Exception:
            pass
        assert self.connect is not None
        self.transport = self.connect()
        self.handshake()

    def _serve_one(self) -> None:
        """Receive and answer a single PPX message."""
        message = self.transport.receive()
        if isinstance(message, Run):
            try:
                # Addresses start at the simulator, whatever launched this
                # client (a script, ``python -m``, a thread).
                __ppl_model_entry__ = True  # noqa: F841 - stack marker for address building
                result = self.simulator(self)
            except ConnectionError:
                raise  # a dropped socket mid-trace is a transport event, not a model error
            except Exception as exc:  # report simulator failures to the PPL
                self.transport.send(RunResult(result=None, success=False, error=str(exc)))
            else:
                self.transport.send(RunResult(result=result, success=True))
        elif isinstance(message, Reset):
            self.address_builder.clear_cache()
        elif isinstance(message, ShutdownRequest):
            self.transport.send(ShutdownResult())
            self._running = False
        else:
            raise RuntimeError(f"unexpected PPX message {type(message).__name__}")

    def stop(self) -> None:
        self._running = False

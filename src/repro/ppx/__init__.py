"""PPX: the probabilistic execution protocol (Section 4.1).

Subpackages:

* :mod:`repro.ppx.messages` — the protocol's message pairs,
* :mod:`repro.ppx.serialization` — the binary wire format (flatbuffers stand-in),
* :mod:`repro.ppx.transport` — in-process and socket transports (ZeroMQ stand-in),
* :mod:`repro.ppx.addresses` — stack-frame addressing with the dladdr-style cache,
* :mod:`repro.ppx.client` — the simulator-side binding,
* :mod:`repro.ppx.server` — the PPL-side controller.
"""

from repro.ppx.addresses import AddressBuilder
from repro.ppx.client import SimulatorClient
from repro.ppx.messages import (
    Handshake,
    HandshakeResult,
    Message,
    ObserveRequest,
    ObserveResult,
    Reset,
    Run,
    RunResult,
    SampleRequest,
    SampleResult,
    ShutdownRequest,
    ShutdownResult,
    message_from_dict,
)
from repro.ppx.serialization import decode_message, decode_value, encode_message, encode_value
from repro.ppx.server import SimulatorController
from repro.ppx.transport import (
    QueueTransport,
    SocketTransport,
    Transport,
    connect_tcp,
    listen_tcp,
    make_queue_pair,
)

__all__ = [
    "AddressBuilder",
    "SimulatorClient",
    "SimulatorController",
    "Message",
    "Handshake",
    "HandshakeResult",
    "Run",
    "RunResult",
    "SampleRequest",
    "SampleResult",
    "ObserveRequest",
    "ObserveResult",
    "Reset",
    "ShutdownRequest",
    "ShutdownResult",
    "message_from_dict",
    "encode_value",
    "decode_value",
    "encode_message",
    "decode_message",
    "Transport",
    "QueueTransport",
    "SocketTransport",
    "make_queue_pair",
    "connect_tcp",
    "listen_tcp",
]

"""PPX message definitions.

The probabilistic execution protocol (PPX, Section 4.1 and Figure 1) defines
language-agnostic message pairs covering the call and return values of

1. program entry points (``Handshake``/``HandshakeResult``, ``Run``/``RunResult``),
2. ``sample`` statements for random-number draws, and
3. ``observe`` statements for conditioning.

Each message is a small dataclass with a ``kind`` tag, convertible to/from a
plain dictionary so that :mod:`repro.ppx.serialization` can put it on the wire.
The real PPX uses flatbuffers over ZeroMQ; the wire format here is a compact
self-describing binary encoding over sockets or in-process pipes, preserving
the separation between simulator process and PPL process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Type

__all__ = [
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
]

_MESSAGE_TYPES: Dict[str, Type["Message"]] = {}


def _register(cls: Type["Message"]) -> Type["Message"]:
    _MESSAGE_TYPES[cls.__name__] = cls
    return cls


def message_from_dict(payload: Dict[str, Any]) -> "Message":
    body = dict(payload)
    kind = body.pop("kind", None)
    if kind not in _MESSAGE_TYPES:
        raise KeyError(f"unknown PPX message kind {kind!r}")
    return _MESSAGE_TYPES[kind](**body)


@dataclass
class Message:
    """Base class for PPX messages."""

    def to_dict(self) -> Dict[str, Any]:
        """``kind`` + the fields as they are: numpy arrays stay arrays on the wire."""
        return {"kind": type(self).__name__, **self.__dict__}


@_register
@dataclass
class Handshake(Message):
    """Sent by the simulator when it connects: identifies the model."""

    system_name: str = "unknown-simulator"
    model_name: str = "unknown-model"
    language: str = "python"


@_register
@dataclass
class HandshakeResult(Message):
    """PPL's reply to a handshake."""

    system_name: str = "repro-ppl"
    accepted: bool = True


@_register
@dataclass
class Run(Message):
    """Ask the simulator to execute once, optionally with an observation embedded."""

    observation: Optional[Any] = None


@_register
@dataclass
class RunResult(Message):
    """Simulator finished one execution; carries its return value."""

    result: Optional[Any] = None
    success: bool = True
    error: Optional[str] = None


@_register
@dataclass
class SampleRequest(Message):
    """The simulator hit a ``sample`` statement and requests a value."""

    address: str = ""
    distribution: Optional[Dict[str, Any]] = None
    name: Optional[str] = None
    control: bool = True
    replace: bool = False


@_register
@dataclass
class SampleResult(Message):
    """The PPL's choice for a random-number draw."""

    value: Any = None


@_register
@dataclass
class ObserveRequest(Message):
    """The simulator hit an ``observe`` (conditioning) statement."""

    address: str = ""
    distribution: Optional[Dict[str, Any]] = None
    value: Any = None
    name: Optional[str] = None


@_register
@dataclass
class ObserveResult(Message):
    """Acknowledgement of an observe statement."""

    pass


@_register
@dataclass
class Reset(Message):
    """Ask the simulator side to reset per-run state (addresses, counters)."""

    pass


@_register
@dataclass
class ShutdownRequest(Message):
    """Terminate the simulator process."""

    pass


@_register
@dataclass
class ShutdownResult(Message):
    """Acknowledgement of shutdown."""

    pass

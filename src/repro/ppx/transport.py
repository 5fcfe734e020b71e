"""PPX transports.

The original system exchanges PPX messages over ZeroMQ sockets, which allows
communication between separate processes on the same machine (inter-process
sockets) or across a network (TCP).  This module provides the same two
deployment shapes without ZeroMQ:

* :class:`QueueTransport` — an in-process pair of queues, used when the
  "simulator" is a Python callable living in the same process (fast path for
  tests and for the local :class:`repro.ppl.model.Model`).
* :class:`SocketTransport` — a length-prefix framed stream over a TCP or Unix
  domain socket, used when the simulator runs in a *separate process* (the
  Sherpa-like deployment, exercised by ``examples/remote_simulator_ppx.py``).

On a socket one frame is a 4-byte big-endian body length followed by the
encoded message body (:mod:`repro.ppx.serialization`), written with one
``sendall`` and normally read with one ``recv_into``; the queue pair carries
one encoded body per queue item.
"""

from __future__ import annotations

import queue
import socket
import struct
import time
from typing import Optional, Tuple

from repro.ppx.messages import Message
from repro.ppx.serialization import decode_message, encode_message, encode_message_into
from repro.testing import faults

_HEADER = struct.Struct("!I")  # frame = body length + body

__all__ = ["Transport", "QueueTransport", "SocketTransport", "make_queue_pair", "connect_tcp", "listen_tcp"]


class Transport:
    """Abstract bidirectional message transport."""

    def send(self, message: Message) -> None:
        raise NotImplementedError

    def receive(self, timeout: Optional[float] = None) -> Message:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - default no-op
        pass


class QueueTransport(Transport):
    """In-process transport backed by two queues (one per direction)."""

    def __init__(self, outgoing: "queue.Queue[bytes]", incoming: "queue.Queue[bytes]") -> None:
        self._outgoing = outgoing
        self._incoming = incoming
        self.bytes_sent = 0
        self.bytes_received = 0

    def send(self, message: Message) -> None:
        data = encode_message(message)
        self.bytes_sent += len(data)
        self._outgoing.put(data)

    def receive(self, timeout: Optional[float] = None) -> Message:
        data = self._incoming.get(timeout=timeout)
        self.bytes_received += len(data)
        return decode_message(data)


def make_queue_pair() -> Tuple[QueueTransport, QueueTransport]:
    """Create a connected pair of in-process transports (PPL side, simulator side)."""
    a_to_b: "queue.Queue[bytes]" = queue.Queue()
    b_to_a: "queue.Queue[bytes]" = queue.Queue()
    ppl_side = QueueTransport(outgoing=a_to_b, incoming=b_to_a)
    sim_side = QueueTransport(outgoing=b_to_a, incoming=a_to_b)
    return ppl_side, sim_side


class SocketTransport(Transport):
    """Length-prefix framed transport over a connected stream socket.

    Incoming bytes land in one reusable buffer through ``recv_into`` and are
    decoded in place, so a message that arrives whole costs one system call;
    a message split across segments, or several in one segment, are both
    handled by the ``[_start, _end)`` window of bytes received but not yet
    consumed.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._timeout = sock.gettimeout()
        self._buffer = bytearray(1 << 16)
        self._start = 0
        self._end = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    def send(self, message: Message) -> None:
        frame = bytearray(_HEADER.size)
        encode_message_into(frame, message)
        size = len(frame) - _HEADER.size
        _HEADER.pack_into(frame, 0, size)
        # Chaos hooks: `disconnect` closes the socket mid-stream (the peer
        # sees EOF), `garbage` ships a correctly-framed body of zeros (the
        # peer's decode fails).  Free when no fault plan is installed.
        action = faults.perform("transport.send", size=size)
        if action is not None:
            if action.kind == "disconnect":
                self.close()
                raise ConnectionError("PPX socket closed (injected disconnect)")
            if action.kind == "garbage":
                frame[_HEADER.size :] = bytes(size)
        self._sock.sendall(frame)
        self.bytes_sent += len(frame)

    def _fill(self, count: int) -> None:
        """Block until ``count`` unconsumed bytes sit contiguously at ``_start``."""
        if self._end - self._start >= count:
            return
        if self._start + count > len(self._buffer):
            # Slide the unconsumed bytes to the front (of a larger buffer, for a
            # frame bigger than any before it) to make room for the rest.
            pending = self._buffer[self._start : self._end]
            if count > len(self._buffer):
                self._buffer = bytearray(max(count, 2 * len(self._buffer)))
            self._buffer[: len(pending)] = pending
            self._start, self._end = 0, len(pending)
        view = memoryview(self._buffer)
        while self._end - self._start < count:
            received = self._sock.recv_into(view[self._end :])
            if not received:
                raise ConnectionError("PPX socket closed by peer")
            self._end += received

    def receive(self, timeout: Optional[float] = None) -> Message:
        action = faults.perform("transport.receive")
        if action is not None and action.kind == "disconnect":
            self.close()
            raise ConnectionError("PPX socket closed (injected disconnect)")
        if timeout != self._timeout:
            # ``None`` means block: a deadline set for one call must not
            # outlive it, and an unchanged one costs no system call.
            self._sock.settimeout(timeout)
            self._timeout = timeout
        self._fill(_HEADER.size)
        (size,) = _HEADER.unpack_from(self._buffer, self._start)
        frame_size = _HEADER.size + size
        self._fill(frame_size)
        body_start = self._start + _HEADER.size
        # The frame is consumed before decoding so that a body that fails to
        # decode is dropped, not read again by the next call.
        self._start += frame_size
        if self._start == self._end:
            self._start = self._end = 0
        self.bytes_received += frame_size
        return decode_message(memoryview(self._buffer)[body_start : body_start + size])

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def listen_tcp(host: str = "127.0.0.1", port: int = 0) -> Tuple[socket.socket, int]:
    """Open a listening TCP socket; returns ``(server_socket, bound_port)``."""
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind((host, port))
    server.listen(1)
    return server, server.getsockname()[1]


def connect_tcp(
    host: str,
    port: int,
    timeout: float = 10.0,
    *,
    attempts: int = 5,
    backoff: float = 0.1,
    deadline: Optional[float] = None,
) -> SocketTransport:
    """Connect to a listening PPX endpoint and wrap it in a transport.

    A refused connection usually means the simulator process is still booting
    (the paper's deployment launches PPL and simulator ranks concurrently),
    so ``ConnectionRefusedError`` is retried with doubling backoff — up to
    ``attempts`` tries, bounded overall by ``deadline`` seconds when given.
    Everything else (timeouts, unreachable hosts, resolution failures) fails
    on the first attempt: those are not still-booting signatures.
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    started = time.monotonic()
    delay = max(backoff, 0.0)
    for attempt in range(attempts):
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except ConnectionRefusedError:
            elapsed = time.monotonic() - started
            out_of_time = deadline is not None and elapsed + delay >= deadline
            if attempt == attempts - 1 or out_of_time:
                raise ConnectionRefusedError(
                    f"PPX endpoint {host}:{port} refused the connection "
                    f"({attempt + 1} attempt(s) over {elapsed:.2f}s)"
                ) from None
            time.sleep(delay)
            delay = min(delay * 2, 2.0)
        else:
            sock.settimeout(None)
            return SocketTransport(sock)
    raise ConnectionRefusedError(f"PPX endpoint {host}:{port} refused the connection")

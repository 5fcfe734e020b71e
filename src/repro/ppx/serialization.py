"""Binary wire format for PPX messages.

The original PPX uses flatbuffers (a streamlined version of protocol buffers)
so that simulators written in C++, C#, Go, etc. can exchange messages with a
Python PPL.  flatbuffers is unavailable offline, so this module implements a
compact, self-describing, language-agnostic-in-spirit binary encoding.  Every
value is a 1-byte ASCII type tag followed by a fixed-width or length-prefixed
payload; all integers are big-endian (network byte order):

====  =========  ==========================================================
tag   type       payload
====  =========  ==========================================================
``N``  None       (nothing)
``B``  bool       1 byte, ``0x00`` / ``0x01``
``I``  int        int64
``F``  float      IEEE-754 float64
``S``  str        uint32 byte length + UTF-8 bytes
``Y``  bytes      uint32 length + raw bytes
``L``  list       uint32 count + that many encoded values
``D``  dict       uint32 count + per entry: uint32 key length, UTF-8 key,
                  encoded value (keys are strings, in insertion order)
``A``  ndarray    uint8 dtype-string length + numpy dtype string (e.g.
                  ``<f8``; it names the byte order of the buffer), uint8
                  ndim, ndim x uint32 shape, uint32 byte length + the raw
                  buffer in C order
====  =========  ==========================================================

A message is the dict of its fields preceded by a ``"kind"`` entry naming the
message class; on a stream transport one frame is a 4-byte big-endian body
length followed by that body (see :mod:`repro.ppx.transport`).

numpy arrays — message fields and distribution parameters alike — travel as
``A`` values: dtype, shape and the buffer, never one tagged float per
element.  The bytes of every value that holds no array are unchanged since
the first version of this format, and a peer that spells an array as a nested
``L`` of ``F`` values is still decoded (to a list, which the distribution
constructors accept).

The encoding is deliberately simple enough to re-implement in another
language in an afternoon, which is the property that matters for the paper's
"lightweight PPL front ends" claim.
"""

from __future__ import annotations

import codecs
import struct
from dataclasses import fields
from typing import Any, Callable, Dict, List, Tuple, Type

import numpy as np

from repro.ppx.messages import _MESSAGE_TYPES, Message, message_from_dict

__all__ = ["encode_value", "decode_value", "encode_message", "encode_message_into", "decode_message"]

_U8 = struct.Struct("!B").pack
_U32 = struct.Struct("!I").pack
_TAG_U32 = struct.Struct("!cI").pack
_TAG_I64 = struct.Struct("!cq").pack
_TAG_F64 = struct.Struct("!cd").pack
_unpack_u32 = struct.Struct("!I").unpack_from
_unpack_i64 = struct.Struct("!q").unpack_from
_unpack_f64 = struct.Struct("!d").unpack_from
_utf8 = codecs.utf_8_decode  # takes any bytes-like object, unlike bytes.decode
_NDARRAY = np.ndarray  # module globals: one lookup less per value than np.<name>
_FLOAT64 = np.float64


# ------------------------------------------------------------------- encoding
def _encode_into(out: bytearray, value: Any) -> None:
    """Append the encoding of ``value`` to ``out``."""
    kind = type(value)
    if kind is str:
        raw = value.encode("utf-8")
        out += _TAG_U32(b"S", len(raw))
        out += raw
    elif kind is float or kind is _FLOAT64:
        out += _TAG_F64(b"F", value)
    elif kind is bool:
        out += b"B\x01" if value else b"B\x00"
    elif value is None:
        out += b"N"
    elif kind is int:
        out += _TAG_I64(b"I", value)
    elif kind is dict:
        out += _TAG_U32(b"D", len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError("PPX dictionaries must have string keys")
            raw = key.encode("utf-8")
            out += _U32(len(raw))
            out += raw
            _encode_into(out, item)
    elif kind is _NDARRAY:
        if value.dtype.hasobject:
            raise TypeError("cannot encode an object-dtype array for PPX")
        dtype_name = value.dtype.str.encode("ascii")
        out += b"A"
        out += _U8(len(dtype_name))
        out += dtype_name
        out += _U8(value.ndim)
        for extent in value.shape:
            out += _U32(extent)
        raw = value.tobytes()  # C order whatever the array's own layout
        out += _U32(len(raw))
        out += raw
    elif kind is list or kind is tuple:
        out += _TAG_U32(b"L", len(value))
        for item in value:
            _encode_into(out, item)
    elif kind is bytes:
        out += _TAG_U32(b"Y", len(value))
        out += value
    else:
        _encode_into(out, _as_builtin(value))


def _as_builtin(value: Any) -> Any:
    """The exact-typed equivalent of a numpy scalar or a builtin's subclass."""
    if isinstance(value, bool):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, str):
        return str(value)
    if isinstance(value, (bytes, bytearray)):
        return bytes(value)
    if isinstance(value, np.ndarray):
        return np.asarray(value)
    if isinstance(value, (list, tuple)):
        return list(value)
    if isinstance(value, dict):
        return dict(value)
    raise TypeError(f"cannot encode value of type {type(value).__name__} for PPX")


def encode_value(value: Any) -> bytes:
    """Encode a Python value into the PPX binary format."""
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


def _length_prefixed(text: str) -> bytes:
    raw = text.encode("utf-8")
    return _U32(len(raw)) + raw


def _message_layout(cls: Type[Message]) -> Tuple[bytes, Tuple[Tuple[str, bytes], ...]]:
    """The constant bytes of one message kind: dict header + ``kind`` entry, and each field's key."""
    names = [f.name for f in fields(cls)]
    head = bytearray(_TAG_U32(b"D", 1 + len(names)) + _length_prefixed("kind"))
    _encode_into(head, cls.__name__)
    return bytes(head), tuple((name, _length_prefixed(name)) for name in names)


_MESSAGE_LAYOUTS = {cls: _message_layout(cls) for cls in _MESSAGE_TYPES.values()}


def encode_message_into(out: bytearray, message: Message) -> None:
    """Append the encoding of ``message`` — the bytes of ``encode_value(message.to_dict())``."""
    try:
        head, keyed_fields = _MESSAGE_LAYOUTS[type(message)]
    except KeyError:
        raise TypeError(f"{type(message).__name__} is not a registered PPX message kind") from None
    out += head
    for name, key in keyed_fields:
        out += key
        _encode_into(out, getattr(message, name))


def encode_message(message: Message) -> bytes:
    """Serialise a PPX message to bytes."""
    out = bytearray()
    encode_message_into(out, message)
    return bytes(out)


# ------------------------------------------------------------------- decoding
# One decoder per tag, each ``(buffer, offset just past the tag) -> (value,
# next offset)``; ``buffer`` is any bytes-like object indexable to ints.
def _decode_none(buffer, offset: int) -> Tuple[Any, int]:
    return None, offset


def _decode_bool(buffer, offset: int) -> Tuple[Any, int]:
    return buffer[offset] == 1, offset + 1


def _decode_int(buffer, offset: int) -> Tuple[Any, int]:
    return _unpack_i64(buffer, offset)[0], offset + 8


def _decode_float(buffer, offset: int) -> Tuple[Any, int]:
    return _unpack_f64(buffer, offset)[0], offset + 8


def _decode_bytes(buffer, offset: int) -> Tuple[Any, int]:
    start = offset + 4
    end = start + _unpack_u32(buffer, offset)[0]
    if end > len(buffer):
        raise ValueError(f"PPX payload truncated: {end - start} bytes announced at offset {offset}")
    return bytes(buffer[start:end]), end


def _decode_str(buffer, offset: int) -> Tuple[Any, int]:
    # The hottest decoder: spelled out rather than routed through
    # _decode_bytes, which would cost a call and a copy per string.
    start = offset + 4
    end = start + _unpack_u32(buffer, offset)[0]
    if end > len(buffer):
        raise ValueError(f"PPX payload truncated: {end - start} bytes announced at offset {offset}")
    return _utf8(buffer[start:end])[0], end


def _decode_array(buffer, offset: int) -> Tuple[Any, int]:
    dtype_end = offset + 1 + buffer[offset]
    dtype = np.dtype(_utf8(buffer[offset + 1 : dtype_end])[0])
    ndim = buffer[dtype_end]
    offset = dtype_end + 1 + 4 * ndim
    shape = struct.unpack_from(f"!{ndim}I", buffer, dtype_end + 1)
    (raw_len,) = _unpack_u32(buffer, offset)
    offset += 4
    count = 1
    for extent in shape:
        count *= extent
    if dtype.hasobject or raw_len != count * dtype.itemsize:
        raise ValueError(f"PPX array header inconsistent: dtype {dtype.str}, shape {shape}, {raw_len} bytes")
    # The copy detaches the array from the (reused, possibly unaligned) buffer.
    array = np.frombuffer(buffer, dtype, count, offset).reshape(shape).copy()
    return array, offset + raw_len


def _decode_list(buffer, offset: int) -> Tuple[Any, int]:
    (count,) = _unpack_u32(buffer, offset)
    offset += 4
    items: List[Any] = []
    for _ in range(count):
        item, offset = _DECODERS[buffer[offset]](buffer, offset + 1)
        items.append(item)
    return items, offset


def _decode_dict(buffer, offset: int) -> Tuple[Any, int]:
    (count,) = _unpack_u32(buffer, offset)
    offset += 4
    out: Dict[str, Any] = {}
    for _ in range(count):
        start = offset + 4
        end = start + _unpack_u32(buffer, offset)[0]
        # A key cut short by the end of the buffer makes the tag lookup fail.
        out[_utf8(buffer[start:end])[0]], offset = _DECODERS[buffer[end]](buffer, end + 1)
    return out, offset


def _decode_unknown(buffer, offset: int) -> Tuple[Any, int]:
    raise ValueError(f"unknown PPX type tag {bytes(buffer[offset - 1 : offset])!r} at offset {offset - 1}")


_DECODERS: List[Callable[[Any, int], Tuple[Any, int]]] = [_decode_unknown] * 256
for _tag, _decoder in (
    (b"N", _decode_none),
    (b"B", _decode_bool),
    (b"I", _decode_int),
    (b"F", _decode_float),
    (b"S", _decode_str),
    (b"Y", _decode_bytes),
    (b"L", _decode_list),
    (b"D", _decode_dict),
    (b"A", _decode_array),
):
    _DECODERS[_tag[0]] = _decoder


def decode_value(buffer, offset: int = 0) -> Tuple[Any, int]:
    """Decode one value starting at ``offset``; returns ``(value, next_offset)``.

    ``buffer`` may be ``bytes``, a ``bytearray`` or a byte ``memoryview``;
    nothing in the result aliases it.
    """
    try:
        return _DECODERS[buffer[offset]](buffer, offset + 1)
    except (IndexError, struct.error) as exc:  # ran off the end of the buffer
        raise ValueError(f"PPX payload truncated: {exc}") from exc


def decode_message(buffer) -> Message:
    """Deserialise bytes back into a PPX message."""
    payload, _ = decode_value(buffer, 0)
    if not isinstance(payload, dict):
        raise ValueError("PPX message payload must decode to a dictionary")
    return message_from_dict(payload)

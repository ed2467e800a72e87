"""The wire codec and the per-connection handshake.

A pickled wire is compact and exact, but unsafe (pickle executes code on
load) and unversioned (no way to evolve the wire without breaking every
peer).  The serving layer therefore speaks one versioned codec behind a
handshake, and nothing on its wire is ever unpickled:

* The first frame a client sends is a *hello*: a hand-rolled, codec-free
  byte layout (magic, wire version, the codec names the client offers).
  The server answers with an *accept* naming ``binary.1`` or a *reject*
  naming the reason — :func:`answer_hello` is that whole decision, shared
  by both front ends — and every later frame on the connection is encoded
  with :data:`BINARY`.
* :class:`BinaryCodec` (``binary.1``) is a length-prefixed, tag-based
  binary encoding of exactly the value shapes the serving ops exchange —
  dicts, lists, strings, ints, IEEE-754 ``float64`` (bit preserved), NumPy
  arrays (dtype + shape + raw little-endian bytes, so every float64 bit
  survives the round-trip), and the library's own value objects
  (:class:`~repro.database.query.ResultSet`,
  :class:`~repro.feedback.engine.FeedbackState`,
  :class:`~repro.feedback.engine.FeedbackLoopResult`,
  :class:`~repro.core.oqp.OptimalQueryParameters`,
  :class:`~repro.core.simplex_tree.InsertOutcome`).  Decoding never
  constructs anything but these, nests at most :data:`MAX_NESTING` levels
  deep, and checks every length against the bytes present — a hostile peer
  can at worst make the decoder raise :class:`CodecError`.

The codec layer also defines the **chunked streaming** envelope: a response
whose result is a long list (a large ``search_batch`` answer) is sent as a
small header frame ``{"ok": True, "chunked": n, "total": t}`` followed by
``n`` sub-frames each carrying one bounded slice of the list, instead of
one giant frame — see :func:`encode_response_frames`.
"""

from __future__ import annotations

import math
import re
import reprlib
import struct

import numpy as np

from repro.database.query import ResultSet
from repro.core.oqp import OptimalQueryParameters
from repro.core.simplex_tree import InsertOutcome
from repro.feedback.engine import FeedbackLoopResult, FeedbackState
from repro.serving.protocol import ProtocolError

__all__ = [
    "BINARY",
    "CodecError",
    "MAX_HELLO_BYTES",
    "MAX_NESTING",
    "WIRE_VERSION",
    "BinaryCodec",
    "answer_hello",
    "encode_response_frames",
    "pack_accept",
    "pack_hello",
    "pack_reject",
    "parse_hello",
    "parse_reply",
]

#: Wire-protocol revision spoken through the handshake.  Version 1 was the
#: original handshake-less pickle wire, which no server serves any more;
#: version 2 added the handshake, the binary codec and chunked responses.
WIRE_VERSION = 2

#: Every handshake frame opens with this magic; a first frame without it
#: is answered with a reject and the connection closes.
MAGIC = b"RSRV"

_HELLO = struct.Struct(">4sHB")  # magic, wire version, number of codecs
_REPLY = struct.Struct(">4sHBH")  # magic, wire version, status, text length
_ACCEPTED, _REJECTED = 0, 1

#: The largest possible hello: the fixed header plus 255 offered names of
#: 255 bytes each.  Front ends read a connection's first frame under this
#: cap, so a peer that has not handshaken cannot make the server allocate
#: more than this.
MAX_HELLO_BYTES = _HELLO.size + 255 * (1 + 255)

#: How deep the decoder follows nested values.  The deepest message the
#: serving ops exchange nests about five levels (a response dict holding a
#: loop result holding a state holding an array); a payload nesting deeper
#: is refused with :class:`CodecError` instead of exhausting the stack.
MAX_NESTING = 32


class CodecError(ProtocolError):
    """A payload could not be encoded or decoded, or a handshake failed."""


# ---------------------------------------------------------------------------
# Handshake


def pack_hello(codec_names) -> bytes:
    """The client's opening frame payload: offered codecs, best first."""
    names = list(codec_names)
    parts = [_HELLO.pack(MAGIC, WIRE_VERSION, len(names))]
    for name in names:
        encoded = name.encode("ascii")
        parts.append(struct.pack(">B", len(encoded)) + encoded)
    return b"".join(parts)


def parse_hello(payload) -> "list[str]":
    """Parse a hello payload into the offered codec names.

    Raises :class:`CodecError` when the payload is not a hello at all (no
    magic) or when its layout or wire version is wrong.
    """
    data = bytes(payload)
    if len(data) < _HELLO.size or not data.startswith(MAGIC):
        raise CodecError("this server requires the codec handshake as the first frame")
    magic, version, count = _HELLO.unpack_from(data)
    if version != WIRE_VERSION:
        raise CodecError(f"unsupported wire version {version} (this side speaks {WIRE_VERSION})")
    names = []
    offset = _HELLO.size
    try:
        for _ in range(count):
            (length,) = struct.unpack_from(">B", data, offset)
            offset += 1
            names.append(data[offset : offset + length].decode("ascii"))
            if len(names[-1]) != length:
                raise CodecError("truncated codec name in handshake")
            offset += length
    except (struct.error, UnicodeDecodeError) as error:
        raise CodecError(f"malformed handshake: {error}") from error
    if offset != len(data):
        raise CodecError("trailing bytes after handshake")
    if not names:
        raise CodecError("handshake offered no codecs")
    return names


def _pack_reply(status: int, text: str) -> bytes:
    encoded = text.encode("utf-8")
    return _REPLY.pack(MAGIC, WIRE_VERSION, status, len(encoded)) + encoded


def pack_accept(codec_name: str) -> bytes:
    """The server's answer naming the codec the connection will speak."""
    return _pack_reply(_ACCEPTED, codec_name)


def pack_reject(reason: str) -> bytes:
    """The server's refusal; the connection closes after this frame."""
    return _pack_reply(_REJECTED, reason)


def parse_reply(payload) -> str:
    """Parse the server's handshake answer into the accepted codec name.

    Raises :class:`CodecError` on a reject (carrying the server's reason)
    or on a malformed / wrong-version reply.
    """
    data = bytes(payload)
    if len(data) < _REPLY.size or not data.startswith(MAGIC):
        raise CodecError("the server did not answer the codec handshake")
    magic, version, status, length = _REPLY.unpack_from(data)
    if version != WIRE_VERSION:
        raise CodecError(f"unsupported wire version {version} in handshake reply")
    try:
        text = data[_REPLY.size : _REPLY.size + length].decode("utf-8")
    except UnicodeDecodeError as error:
        raise CodecError(f"malformed handshake reply: {error}") from error
    if status == _REJECTED:
        raise CodecError(f"handshake rejected: {text}")
    if status != _ACCEPTED or len(text) != length:
        raise CodecError("malformed handshake reply")
    return text


# ---------------------------------------------------------------------------
# The binary codec

_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1

#: A ``dtype.str`` as the encoder writes it for a plain array: byte order,
#: kind, item size, optional datetime unit.
_DTYPE_STR = re.compile(r"[<>|][biufcmMSUV]\d+(\[\w+\])?")


class BinaryCodec:
    """Tag-based binary encoding of the serving layer's message values.

    Every value is one tag byte followed by a fixed or length-prefixed
    body; containers recurse.  Floats travel as their raw IEEE-754 bytes
    and arrays as ``dtype.str`` + shape + ``tobytes()``, so **every**
    ``float64`` bit — distances, query points, weights — survives the
    round-trip exactly (the serving layer's byte-identity contract).
    Decoding builds only plain Python values, NumPy arrays and the
    library's own value types; anything else raises :class:`CodecError` at
    *encode* time on the sending side, never surprising the receiver.
    """

    name = "binary.1"

    # ---------------------------- encode ----------------------------- #
    def encode(self, message) -> bytes:
        out = bytearray()
        self._encode(message, out)
        return bytes(out)

    def _encode(self, value, out: bytearray) -> None:
        if value is None:
            out += b"N"
        elif value is True:
            out += b"T"
        elif value is False:
            out += b"F"
        elif isinstance(value, int) and not isinstance(value, bool):
            if _I64_MIN <= value <= _I64_MAX:
                out += b"i"
                out += _I64.pack(value)
            else:
                body = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
                out += b"I"
                out += _U32.pack(len(body))
                out += body
        elif isinstance(value, float):
            out += b"f"
            out += _F64.pack(value)
        elif isinstance(value, str):
            body = value.encode("utf-8")
            out += b"s"
            out += _U32.pack(len(body))
            out += body
        elif isinstance(value, (bytes, bytearray, memoryview)):
            body = bytes(value)
            out += b"y"
            out += _U32.pack(len(body))
            out += body
        elif isinstance(value, np.ndarray):
            self._encode_array(value, out)
        elif isinstance(value, np.bool_):
            out += b"T" if bool(value) else b"F"
        elif isinstance(value, np.integer):
            out += b"i"
            out += _I64.pack(int(value))
        elif isinstance(value, np.floating):
            out += b"f"
            out += _F64.pack(float(value))
        elif isinstance(value, list):
            out += b"l"
            out += _U32.pack(len(value))
            for item in value:
                self._encode(item, out)
        elif isinstance(value, tuple):
            out += b"u"
            out += _U32.pack(len(value))
            for item in value:
                self._encode(item, out)
        elif isinstance(value, dict):
            out += b"d"
            out += _U32.pack(len(value))
            for key, item in value.items():
                self._encode(key, out)
                self._encode(item, out)
        elif isinstance(value, ResultSet):
            out += b"R"
            self._encode_array(value.indices(), out)
            self._encode_array(value.distances(), out)
        elif isinstance(value, OptimalQueryParameters):
            out += b"O"
            self._encode_array(value.delta, out)
            self._encode_array(value.weights, out)
        elif isinstance(value, InsertOutcome):
            out += b"o"
            self._encode(value.action, out)
            self._encode(float(value.prediction_error), out)
        elif isinstance(value, FeedbackState):
            out += b"S"
            self._encode_array(value.query_point, out)
            self._encode_array(value.weights, out)
        elif isinstance(value, FeedbackLoopResult):
            out += b"L"
            self._encode(value.initial_state, out)
            self._encode(value.final_state, out)
            self._encode(value.initial_results, out)
            self._encode(value.final_results, out)
            self._encode(int(value.iterations), out)
            self._encode(value.reason, out)
        else:
            raise CodecError(f"the binary codec cannot carry {type(value).__name__} values")

    def _encode_array(self, array: np.ndarray, out: bytearray) -> None:
        if array.dtype.hasobject:
            raise CodecError("the binary codec cannot carry object-dtype arrays")
        # ascontiguousarray promotes 0-d to 1-d — keep the true shape.
        contiguous = np.ascontiguousarray(array)
        dtype = contiguous.dtype.str.encode("ascii")
        out += b"a"
        out += struct.pack(">B", len(dtype))
        out += dtype
        out += struct.pack(">B", array.ndim)
        for dim in array.shape:
            out += _U32.pack(dim)
        body = contiguous.tobytes()
        out += _U64.pack(len(body))
        out += body

    # ---------------------------- decode ----------------------------- #
    def decode(self, payload):
        data = bytes(payload)
        try:
            value, offset = self._decode(data, 0, 0)
        except (
            struct.error,
            IndexError,
            UnicodeDecodeError,
            ValueError,
            TypeError,
            OverflowError,
        ) as error:
            raise CodecError(f"malformed binary payload: {error}") from error
        if offset != len(data):
            raise CodecError(f"trailing bytes after binary payload ({len(data) - offset})")
        return value

    def _decode(self, data: bytes, offset: int, depth: int):
        if depth >= MAX_NESTING:
            raise CodecError(f"binary payload nests deeper than {MAX_NESTING} levels")
        depth += 1
        tag = data[offset : offset + 1]
        offset += 1
        if tag == b"N":
            return None, offset
        if tag == b"T":
            return True, offset
        if tag == b"F":
            return False, offset
        if tag == b"i":
            return _I64.unpack_from(data, offset)[0], offset + _I64.size
        if tag == b"I":
            (length,) = _U32.unpack_from(data, offset)
            offset += _U32.size
            self._check(data, offset, length)
            return int.from_bytes(data[offset : offset + length], "big", signed=True), offset + length
        if tag == b"f":
            return _F64.unpack_from(data, offset)[0], offset + _F64.size
        if tag == b"s":
            (length,) = _U32.unpack_from(data, offset)
            offset += _U32.size
            self._check(data, offset, length)
            return data[offset : offset + length].decode("utf-8"), offset + length
        if tag == b"y":
            (length,) = _U32.unpack_from(data, offset)
            offset += _U32.size
            self._check(data, offset, length)
            return data[offset : offset + length], offset + length
        if tag in (b"l", b"u"):
            (count,) = _U32.unpack_from(data, offset)
            offset += _U32.size
            items = []
            for _ in range(count):
                item, offset = self._decode(data, offset, depth)
                items.append(item)
            return (items if tag == b"l" else tuple(items)), offset
        if tag == b"d":
            (count,) = _U32.unpack_from(data, offset)
            offset += _U32.size
            mapping = {}
            for _ in range(count):
                key, offset = self._decode(data, offset, depth)
                value, offset = self._decode(data, offset, depth)
                mapping[key] = value
            return mapping, offset
        if tag == b"a":
            return self._decode_array(data, offset)
        if tag == b"R":
            indices, offset = self._decode_tagged_array(data, offset, depth)
            distances, offset = self._decode_tagged_array(data, offset, depth)
            return ResultSet.from_arrays(indices, distances), offset
        if tag == b"O":
            delta, offset = self._decode_tagged_array(data, offset, depth)
            weights, offset = self._decode_tagged_array(data, offset, depth)
            return OptimalQueryParameters(delta=delta, weights=weights), offset
        if tag == b"o":
            action, offset = self._decode(data, offset, depth)
            prediction_error, offset = self._decode(data, offset, depth)
            if not isinstance(action, str) or not isinstance(prediction_error, float):
                raise CodecError("malformed insert-outcome payload")
            return InsertOutcome(action=action, prediction_error=prediction_error), offset
        if tag == b"S":
            query_point, offset = self._decode_tagged_array(data, offset, depth)
            weights, offset = self._decode_tagged_array(data, offset, depth)
            return FeedbackState(query_point=query_point, weights=weights), offset
        if tag == b"L":
            initial_state, offset = self._decode(data, offset, depth)
            final_state, offset = self._decode(data, offset, depth)
            initial_results, offset = self._decode(data, offset, depth)
            final_results, offset = self._decode(data, offset, depth)
            iterations, offset = self._decode(data, offset, depth)
            reason, offset = self._decode(data, offset, depth)
            if not isinstance(initial_state, FeedbackState) or not isinstance(
                initial_results, ResultSet
            ):
                raise CodecError("malformed loop-result payload")
            # An unknown reason fails FeedbackLoopResult's own validation,
            # a ValueError that decode() reports as a CodecError.
            return (
                FeedbackLoopResult(
                    initial_state=initial_state,
                    final_state=final_state,
                    initial_results=initial_results,
                    final_results=final_results,
                    iterations=int(iterations),
                    reason=reason,
                ),
                offset,
            )
        raise CodecError(f"unknown binary tag {tag!r} at offset {offset - 1}")

    @staticmethod
    def _check(data: bytes, offset: int, length: int) -> None:
        if offset + length > len(data):
            raise CodecError("truncated binary payload")

    def _decode_tagged_array(self, data: bytes, offset: int, depth: int):
        value, offset = self._decode(data, offset, depth)
        if not isinstance(value, np.ndarray):
            raise CodecError("expected an array field in binary payload")
        return value, offset

    def _decode_array(self, data: bytes, offset: int):
        (dtype_length,) = struct.unpack_from(">B", data, offset)
        offset += 1
        text = data[offset : offset + dtype_length].decode("ascii")
        # Matched before numpy parses it: no alias, field or sub-array reaches
        # numpy, so the header names the element type and shape exactly.
        dtype = np.dtype(text) if _DTYPE_STR.fullmatch(text) else None
        if dtype is None or dtype.str != text:
            raise CodecError(f"malformed binary payload: array dtype {text!r} is not a plain dtype string")
        offset += dtype_length
        (ndim,) = struct.unpack_from(">B", data, offset)
        offset += 1
        shape = []
        for _ in range(ndim):
            (dim,) = _U32.unpack_from(data, offset)
            shape.append(dim)
            offset += _U32.size
        (nbytes,) = _U64.unpack_from(data, offset)
        offset += _U64.size
        if math.prod(shape) * dtype.itemsize != nbytes:
            raise CodecError("array byte count does not match its shape")
        self._check(data, offset, nbytes)
        array = np.frombuffer(data[offset : offset + nbytes], dtype=dtype)
        return (array.reshape(shape) if ndim != 1 else array), offset + nbytes


BINARY = BinaryCodec()


def answer_hello(payload) -> "tuple[bytes, bool]":
    """The server's reply to a connection's first frame, and whether it accepts.

    Both front ends send the reply verbatim, then serve the connection on
    :data:`BINARY` when accepted or close it when not.  A payload that is
    not a well-formed version-2 hello, or an offer without ``binary.1``
    (a ``pickle.1``-only offer included), gets a reject naming the reason;
    nothing here raises.
    """
    try:
        offered = parse_hello(payload)
    except CodecError as error:
        return pack_reject(str(error)), False
    if BINARY.name not in offered:
        return (
            pack_reject(
                f"no codec overlap (offered {reprlib.repr(offered)}; "
                f"this server speaks {BINARY.name})"
            ),
            False,
        )
    return pack_accept(BINARY.name), True


def encode_response_frames(response: dict, codec, *, chunk_items: int) -> "list[bytes]":
    """Encode one response as its wire frames, streaming long list results.

    A response whose ``result`` is a list longer than ``chunk_items`` is
    split into a chunk-header frame ``{"ok": True, "chunked": n, "total":
    t}`` followed by ``n`` sub-frames each carrying at most ``chunk_items``
    items — bounding peak frame size (and the receiver's buffer) for large
    ``search_batch`` answers.
    """
    result = response.get("result") if response.get("ok") else None
    if isinstance(result, list) and len(result) > chunk_items:
        chunks = [result[i : i + chunk_items] for i in range(0, len(result), chunk_items)]
        frames = [codec.encode({"ok": True, "chunked": len(chunks), "total": len(result)})]
        frames.extend(codec.encode(chunk) for chunk in chunks)
        return frames
    return [codec.encode(response)]

"""The serving layer's wire framing: length-prefixed frames.

One frame is a 4-byte big-endian unsigned length followed by exactly that
many payload bytes.  Both directions speak the same frame format; a
conversation is a strict request/response alternation driven by the client
(one request frame in, one response frame out — or, for large streamed
responses, a chunk-header frame followed by the announced number of chunk
sub-frames).

What the payload bytes *mean* is the business of the codec
(:mod:`repro.serving.codec`): the first frame a client sends is the codec
handshake, after which both sides encode every message with the binary
codec, which decodes nothing but data.  Requests are small dicts
(``{"op": <name>, ...}``), responses are ``{"ok": True, "result": ...}`` or
``{"ok": False, "error": <kind>, "message": <text>}`` — see
``docs/serving.md`` for the full op reference.

This module owns only the framing: reading and writing exact byte counts
(into preallocated buffers — the hot path of every served request), the
frame-size guard, and the clean-EOF-versus-torn-stream distinction.
"""

from __future__ import annotations

import struct

__all__ = [
    "ConnectionClosed",
    "ProtocolError",
    "QUERY_WIRE_KEYS",
    "frame",
    "recv_payload",
    "send_payload",
    "MAX_FRAME_BYTES",
]

#: Message keys of the four k-NN query ops: ``op -> (array keys, result
#: key)``.  The array keys name the query matrix and, for the parameterised
#: ops, its ``Δ`` and ``W`` companions; a singular result key marks a
#: one-row op (vectors on the wire, one result back).  Every op also carries
#: ``k`` and optionally ``budget`` — the answer is then ``{result key: ...,
#: "coverage": ...}``.  The server's query handler and the client's request
#: builder both read the wire names from here.
QUERY_WIRE_KEYS = {
    "search": (("query_point",), "result"),
    "search_batch": (("query_points",), "results"),
    "search_with_parameters": (("query_point", "delta", "weights"), "result"),
    "search_batch_with_parameters": (("query_points", "deltas", "weights"), "results"),
}

#: Frame header: one big-endian uint32 payload length.
_HEADER = struct.Struct(">I")

#: Upper bound on one frame's payload.  Far above any legitimate message
#: (query batches and result lists are kilobytes, and large responses
#: stream as bounded chunk sub-frames), so a corrupt or misaligned stream
#: fails fast instead of attempting a gigabyte read.
MAX_FRAME_BYTES = 1 << 30

#: Frames up to this size are read into one buffer sized from the header.
#: A larger frame's buffer grows as its bytes arrive, so a header alone
#: cannot make the reader allocate what the peer never sends.
_PREALLOCATED_FRAME_BYTES = 1 << 20


class ConnectionClosed(Exception):
    """The peer closed the connection at a frame boundary (clean EOF)."""


class ProtocolError(Exception):
    """The stream violated the framing (mid-frame EOF or oversized frame)."""


def _recv_exactly(sock, n_bytes: int) -> bytearray:
    """Read exactly ``n_bytes`` into one buffer.

    ``recv_into`` against a sliding :class:`memoryview` fills a single
    ``bytearray`` — no per-chunk ``bytes`` objects, no final ``b"".join``
    copy, which matters on multi-megabyte batch responses.  Frames above
    ``_PREALLOCATED_FRAME_BYTES`` start at that size and double, up to
    ``n_bytes``, each time the bytes received fill the buffer, so memory
    stays within twice what actually arrived.  Raises
    :class:`ProtocolError` on EOF before the count is met.
    """
    buffer = bytearray(min(n_bytes, _PREALLOCATED_FRAME_BYTES))
    received = 0
    while True:
        with memoryview(buffer) as view:
            while received < len(buffer):
                count = sock.recv_into(view[received:])
                if count == 0:
                    raise ProtocolError(
                        f"connection closed mid-frame ({received} of {n_bytes} bytes read)"
                    )
                received += count
        if received == n_bytes:
            return buffer
        buffer.extend(bytes(min(len(buffer), n_bytes - len(buffer))))


def frame(payload) -> bytes:
    """Prefix ``payload`` with its length header, ready for one send."""
    length = len(payload)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"message of {length} bytes exceeds the frame limit")
    return _HEADER.pack(length) + bytes(payload)


def send_payload(sock, payload) -> None:
    """Write ``payload`` (bytes-like) as one length-prefixed frame."""
    sock.sendall(frame(payload))


def recv_payload(sock, max_bytes: int = MAX_FRAME_BYTES) -> bytearray:
    """Read one frame and return its raw payload bytes.

    The header is read as a single buffered 4-byte read (no 1-byte probe —
    the old ``recv(1)`` cost an extra syscall on every frame).  Raises
    :class:`ConnectionClosed` on a clean EOF (zero header bytes read) — the
    normal end of a conversation — and :class:`ProtocolError` on a
    truncated header, a truncated payload, or a frame announcing more than
    ``max_bytes``, which is refused before anything is allocated for it.
    """
    header = bytearray(_HEADER.size)
    view = memoryview(header)
    received = 0
    while received < _HEADER.size:
        count = sock.recv_into(view[received:])
        if count == 0:
            if received == 0:
                raise ConnectionClosed("peer closed the connection")
            raise ProtocolError(
                f"connection closed mid-header ({received} of {_HEADER.size} bytes read)"
            )
        received += count
    (length,) = _HEADER.unpack_from(header)
    if length > max_bytes:
        raise ProtocolError(f"frame of {length} bytes exceeds the limit of {max_bytes}")
    return _recv_exactly(sock, length)


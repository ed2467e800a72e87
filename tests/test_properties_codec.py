"""Raw bytes into the wire's one decoder and its one handshake.

Whatever a peer sends, the server-side entry points fail in one typed way:
``BINARY.decode`` returns a value or raises
:class:`~repro.serving.codec.CodecError` — never a ``RecursionError``, an
``OverflowError`` or a constructor's own exception — and
:func:`~repro.serving.codec.answer_hello` never raises at all: it always
returns a reply the client's ``parse_reply`` reads as the accepted codec
or as a ``CodecError`` naming the reject.  The client's ``parse_reply``
itself raises nothing but ``CodecError`` on arbitrary bytes.

Payloads are drawn three ways: plain random bytes, concatenations of the
codec's own tag headers (so the fuzzing reaches past the first byte, into
containers and the library value types), and valid encodings of real
serving messages with a byte overwritten or the tail cut off.
"""

import math
import struct

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.oqp import OptimalQueryParameters
from repro.core.simplex_tree import InsertOutcome
from repro.database.query import ResultSet
from repro.evaluation.simulated_user import CategoryJudge
from repro.feedback.engine import FeedbackLoopResult, FeedbackState
from repro.feedback.scores import JudgmentBatch
from repro.serving.codec import (
    BINARY,
    MAX_HELLO_BYTES,
    CodecError,
    answer_hello,
    pack_hello,
    parse_reply,
)

_RESULTS = ResultSet.from_arrays(np.array([4, 1, 7]), np.array([0.0, 0.25, 0.5]))
_STATE = FeedbackState(query_point=np.arange(3.0), weights=np.ones(3))
_LOOP = FeedbackLoopResult(
    initial_state=_STATE,
    final_state=_STATE,
    initial_results=_RESULTS,
    final_results=_RESULTS,
    iterations=2,
    reason="converged",
)

#: Real serving messages, both directions, every value type the codec carries.
MESSAGES = [
    {"op": "search", "query_point": np.arange(4.0), "k": 3, "budget": None},
    {"op": "run_batch", "queries": [(np.arange(2.0), 3), (np.ones(2), 5)]},
    {"ok": True, "result": _RESULTS},
    {"ok": True, "chunked": 2, "total": 3},
    [_RESULTS, _RESULTS],
    {"ok": False, "error": "validation", "message": "ünïcøde"},
    _LOOP,
    OptimalQueryParameters(delta=np.zeros(3), weights=np.ones(3)),
    InsertOutcome(action="inserted", prediction_error=0.5),
    JudgmentBatch(indices=np.array([4, 1]), scores=np.array([1.0, 0.0])),
    CategoryJudge(labels=np.array(["a", "b"], dtype=object), category="a"),
    {"big": 2**100, "bytes": b"\x00\xff", "tuple": (1.5, True, None), 3: -7},
    np.arange(6, dtype=np.int64).reshape(2, 3),
]
ENCODED = [BINARY.encode(message) for message in MESSAGES]

#: Tag headers with plausible bodies: containers of one or two items, the
#: fixed-size scalars, a short string, a two-float64 array header, and the
#: bare tags of the library value types (whose fields follow as values).
FRAGMENTS = [
    b"l\x00\x00\x00\x01",
    b"u\x00\x00\x00\x02",
    b"d\x00\x00\x00\x01",
    b"N",
    b"T",
    b"i" + bytes(8),
    b"f" + bytes(8),
    b"I\x00\x00\x00\x01\xff",
    b"s\x00\x00\x00\x01a",
    b"y\x00\x00\x00\x00",
    b"a\x03<f8\x01\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x10" + bytes(16),
    b"a\x03<i8\x00\x00\x00\x00\x00\x00\x00\x00\x08" + bytes(8),
    b"R",
    b"O",
    b"o",
    b"S",
    b"L",
    b"B",
    b"J",
]

_CONTAINERS = [b"l\x00\x00\x00\x01", b"u\x00\x00\x00\x01", b"d\x00\x00\x00\x01N"]


@st.composite
def mutated(draw, valid: "list[bytes]"):
    """A valid encoding with one byte overwritten, then maybe truncated."""
    data = bytearray(draw(st.sampled_from(valid)))
    position = draw(st.integers(0, len(data) - 1))
    data[position] = draw(st.integers(0, 255))
    return bytes(data[: draw(st.integers(0, len(data)))])


payloads = st.one_of(
    st.binary(max_size=256),
    st.lists(st.one_of(st.sampled_from(FRAGMENTS), st.binary(max_size=8)), max_size=48).map(
        b"".join
    ),
    st.builds(
        lambda prefix, depth, tail: prefix * depth + tail,
        st.sampled_from(_CONTAINERS),
        st.integers(0, 3000),
        st.binary(max_size=16),
    ),
    mutated(ENCODED),
)


def _loop_with_infinite_iterations() -> bytes:
    """The loop result with its iteration count replaced by ``+inf``."""
    encoded = BINARY.encode(_LOOP)
    count = encoded.rindex(BINARY.encode(_LOOP.iterations))
    return encoded[:count] + BINARY.encode(math.inf) + encoded[count + 9 :]


@settings(max_examples=300, deadline=None)
@given(payloads)
@example(b"l\x00\x00\x00\x01" * 5000 + b"N")
@example(b"d\x00\x00\x00\x01N" * 5000 + b"N")
@example(_loop_with_infinite_iterations())  # int(inf) raises OverflowError
def test_decode_raises_only_codec_errors(payload):
    try:
        BINARY.decode(payload)
    except CodecError:
        pass


def test_the_seed_messages_round_trip():
    """Every mutation starts from a message the decoder accepts whole."""
    for message, encoded in zip(MESSAGES, ENCODED):
        assert BINARY.encode(BINARY.decode(encoded)) == encoded, message


_names = st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=255)
hellos = st.one_of(
    st.binary(max_size=64),
    st.lists(_names, max_size=8).map(pack_hello),
    st.lists(_names, max_size=3).map(lambda names: pack_hello(names + ["binary.1"])),
    mutated([pack_hello(["binary.1"]), pack_hello(["pickle.1", "binary.1"])]),
)


@settings(max_examples=200, deadline=None)
@given(hellos)
@example(pack_hello(["x" * 255] * 255))
def test_answer_hello_always_replies(payload):
    assert len(payload) <= MAX_HELLO_BYTES
    reply, accepted = answer_hello(payload)
    if accepted:
        assert parse_reply(reply) == BINARY.name
    else:
        try:
            parse_reply(reply)
        except CodecError as error:
            assert "rejected" in str(error)
        else:  # pragma: no cover - the property failing
            raise AssertionError("a refused hello was answered with an accept")


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.binary(max_size=64), mutated([answer_hello(pack_hello(["binary.1"]))[0]])))
@example(b"RSRV" + struct.pack(">HBH", 2, 1, 1) + b"\xff")  # a reject reason that is not UTF-8
def test_parse_reply_raises_only_codec_errors(payload):
    try:
        parse_reply(payload)
    except CodecError:
        pass

"""Round-trip contract of the versioned binary codec, and the handshake.

The binary codec's promise (see ``src/repro/serving/codec.py``): every
value the serving layer puts on the wire — scalars, containers, NumPy
arrays, the library's value types — survives encode/decode **bit for
bit**, floats and arrays included; anything it cannot carry fails loudly
at encode time; malformed payloads fail loudly at decode time.  This suite
pins that promise value by value, independent of any socket, together
with :func:`~repro.serving.codec.answer_hello`, the handshake decision
both front ends send verbatim.
"""

import math
import pickle
import struct
import warnings

import numpy as np
import pytest

from repro.database.query import ResultSet
from repro.evaluation.simulated_user import SimulatedUser
from repro.feedback.engine import FeedbackEngine
from repro.feedback.engine import FeedbackState
from repro.feedback.scores import JudgmentBatch
from repro.database.engine import RetrievalEngine
from repro.serving.codec import (
    BINARY,
    MAX_NESTING,
    CodecError,
    answer_hello,
    pack_hello,
    parse_reply,
)


def roundtrip(value):
    return BINARY.decode(BINARY.encode(value))


class TestScalars:
    def test_singletons_and_bools(self):
        for value in (None, True, False):
            assert roundtrip(value) is value
        assert roundtrip(np.bool_(True)) is True

    def test_int64_range_and_bigints(self):
        for value in (0, 1, -1, 2**63 - 1, -(2**63), 2**200, -(2**200), 10**30):
            result = roundtrip(value)
            assert result == value and isinstance(result, int)
        assert roundtrip(np.int32(-7)) == -7

    @pytest.mark.parametrize(
        "value",
        [
            0.0,
            -0.0,
            1.5,
            math.pi,
            float("inf"),
            float("-inf"),
            5e-324,  # smallest denormal
            1.7976931348623157e308,
        ],
    )
    def test_floats_are_bit_exact(self, value):
        result = roundtrip(value)
        assert struct.pack(">d", result) == struct.pack(">d", value)

    def test_nan_payload_survives(self):
        result = roundtrip(float("nan"))
        assert math.isnan(result)
        assert struct.pack(">d", result) == struct.pack(">d", float("nan"))

    def test_strings_and_bytes(self):
        for value in ("", "ascii", "ünïcøde ✓", b"", b"\x00\xff" * 10):
            assert roundtrip(value) == value


class TestContainers:
    def test_lists_tuples_dicts_recurse(self):
        value = {
            "op": "search",
            "nested": [1, (2.5, None), {"deep": [True, b"x"]}],
            3: "int key",
        }
        result = roundtrip(value)
        assert result == value
        assert isinstance(result["nested"][1], tuple)

    def test_empty_containers(self):
        assert roundtrip([]) == []
        assert roundtrip(()) == ()
        assert roundtrip({}) == {}


class TestArrays:
    @pytest.mark.parametrize(
        "array",
        [
            np.arange(12, dtype=np.float64).reshape(3, 4),
            np.array([], dtype=np.float64),
            np.array(5.0),  # 0-d
            np.arange(6, dtype=np.int64),
            np.arange(8, dtype=np.float32).reshape(2, 2, 2),
            np.array([True, False, True]),
        ],
    )
    def test_arrays_roundtrip_bit_exact(self, array):
        result = roundtrip(array)
        assert result.dtype == array.dtype
        assert result.shape == array.shape
        assert result.tobytes() == array.tobytes()

    def test_zero_d_array_keeps_its_shape(self):
        array = np.array(5.0)
        result = roundtrip(array)
        assert result.shape == ()
        assert float(result) == 5.0

    def test_non_contiguous_views_roundtrip(self):
        base = np.arange(20, dtype=np.float64).reshape(4, 5)
        view = base[::2, ::2]  # strided view
        result = roundtrip(view)
        assert np.array_equal(result, view)
        assert result.shape == view.shape

    def test_float64_bits_survive_in_arrays(self):
        array = np.array([0.0, -0.0, np.nan, np.inf, 5e-324, 1 / 3])
        assert roundtrip(array).tobytes() == array.tobytes()

    def test_object_dtype_arrays_are_refused_at_encode(self):
        with pytest.raises(CodecError, match="object-dtype"):
            BINARY.encode(np.array(["a", object()], dtype=object))


class TestLibraryValues:
    @pytest.fixture(scope="class")
    def loop(self, tiny_collection):
        user = SimulatedUser(tiny_collection)
        return FeedbackEngine(
            RetrievalEngine(tiny_collection), max_iterations=4
        ).run_loop(tiny_collection.vectors[2], 6, user.judge_for_query(2))

    def test_result_set(self, tiny_collection):
        result = RetrievalEngine(tiny_collection).search(tiny_collection.vectors[0], 5)
        assert roundtrip(result) == result

    def test_feedback_state_and_loop_result(self, loop):
        state = roundtrip(loop.final_state)
        assert isinstance(state, FeedbackState)
        assert np.array_equal(state.query_point, loop.final_state.query_point)
        assert np.array_equal(state.weights, loop.final_state.weights)
        assert roundtrip(loop).identical_to(loop)

    @pytest.mark.parametrize("kind", ["opaque", "judge", "judgments"])
    def test_arbitrary_objects_are_refused_at_encode(self, tiny_collection, kind):
        """Only data travels: a judge or its judgment batch stays client-side."""

        class Opaque:
            pass

        value = {
            "opaque": Opaque(),
            "judge": SimulatedUser(tiny_collection).judge_for_query(0),
            "judgments": JudgmentBatch(indices=np.array([3, 1]), scores=np.array([1.0, 0.0])),
        }[kind]
        with pytest.raises(CodecError, match=f"cannot carry {type(value).__name__}"):
            BINARY.encode({"judge": value})


class TestDecodeFailures:
    # "J" and "B" once carried a CategoryJudge and a JudgmentBatch.
    @pytest.mark.parametrize(
        "payload",
        [
            b"Zjunk",
            b"J" + BINARY.encode(["a", "b"]) + BINARY.encode("a") + BINARY.encode("binary"),
            b"B" + BINARY.encode(np.array([3, 1])) + BINARY.encode(np.array([1.0, 0.0])),
        ],
        ids=["Z", "J", "B"],
    )
    def test_unknown_tag(self, payload):
        with pytest.raises(CodecError, match="unknown binary tag"):
            BINARY.decode(payload)

    def test_truncated_payload(self):
        encoded = BINARY.encode({"op": "ping", "data": np.arange(4.0)})
        for cut in (1, len(encoded) // 2, len(encoded) - 1):
            with pytest.raises(CodecError):
                BINARY.decode(encoded[:cut])

    def test_trailing_bytes(self):
        with pytest.raises(CodecError, match="trailing"):
            BINARY.decode(BINARY.encode(1) + b"extra")

    def test_empty_payload(self):
        with pytest.raises(CodecError):
            BINARY.decode(b"")


    # One container header each, opening one more level per repetition.
    NESTING_PREFIXES = {
        "list": b"l\x00\x00\x00\x01",
        "tuple": b"u\x00\x00\x00\x01",
        "dict value": b"d\x00\x00\x00\x01N",
    }

    @pytest.mark.parametrize("container", sorted(NESTING_PREFIXES))
    def test_nesting_depth_is_bounded(self, container):
        # Deep enough to exhaust the interpreter's stack without the bound.
        payload = self.NESTING_PREFIXES[container] * 5000 + b"N"
        with pytest.raises(CodecError, match="nests deeper"):
            BINARY.decode(payload)

    def test_nesting_up_to_the_bound_decodes(self):
        value = None
        for _ in range(MAX_NESTING - 1):
            value = [value]
        assert roundtrip(value) == value
        with pytest.raises(CodecError, match="nests deeper"):
            roundtrip([value])

    @staticmethod
    def _with_shape(array: np.ndarray, shape) -> bytes:
        """``array``'s encoding with its declared shape replaced by ``shape``."""
        encoded = BINARY.encode(array)
        prefix = 1 + 1 + len(array.dtype.str)  # tag, dtype length, dtype
        declared = bytes([len(shape)]) + b"".join(struct.pack(">I", dim) for dim in shape)
        return encoded[:prefix] + declared + encoded[prefix + 1 + 4 * array.ndim :]

    @pytest.mark.parametrize(
        "shape",
        [(5,), (2,), (0,), (2, 2), ()],
        ids=["longer", "shorter", "empty", "matrix", "scalar"],
    )
    def test_array_shape_must_match_its_bytes(self, shape):
        # Three float64s whose header declares another element count: the
        # decoder used to return shape (3,) for a declared (5,).
        with pytest.raises(CodecError, match="byte count does not match"):
            BINARY.decode(self._with_shape(np.arange(3.0), shape))

    @pytest.mark.parametrize("dtype", [b",", b"f8,(", b"zz"])
    def test_an_unparseable_dtype_is_a_codec_error(self, dtype):
        # numpy reads "," and "f8,(" through ast.literal_eval, which raises
        # SyntaxError rather than the TypeError of an unknown name.
        payload = b"a" + bytes([len(dtype)]) + dtype + b"\x00" + struct.pack(">Q", 0)
        with pytest.raises(CodecError, match="malformed"):
            BINARY.decode(payload)

    def test_a_sub_array_dtype_cannot_reshape_the_array(self):
        # "(2,)<f8" parses as a float64 sub-array: a (1,)-shaped header with
        # 16 bytes used to decode to shape (1, 2).
        payload = b"a\x07(2,)<f8\x01" + struct.pack(">I", 1) + struct.pack(">Q", 16) + bytes(16)
        with pytest.raises(CodecError, match="not a plain dtype"):
            BINARY.decode(payload)

    @pytest.mark.parametrize("dtype", [b"f8,i4", b"V4", b"a", b"=f8", b"|O", b"<f8 "])
    def test_only_canonical_plain_dtype_strings_decode(self, dtype):
        payload = b"a" + bytes([len(dtype)]) + dtype + b"\x01" + struct.pack(">I", 0) + struct.pack(">Q", 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the alias "a" used to warn first
            with pytest.raises(CodecError, match="not a plain dtype"):
                BINARY.decode(payload)

    def test_the_shape_rewrite_is_faithful(self):
        array = np.arange(6.0)
        assert BINARY.decode(self._with_shape(array, (6,))).tobytes() == array.tobytes()
        assert BINARY.decode(self._with_shape(array, (2, 3))).shape == (2, 3)


def _reply(payload) -> "tuple[str | None, bool]":
    """``answer_hello``'s verdict, as the client's ``parse_reply`` reads it."""
    reply, accepted = answer_hello(payload)
    try:
        return parse_reply(reply), accepted
    except CodecError as error:
        assert not accepted
        return str(error), accepted


class TestHandshake:
    @pytest.mark.parametrize(
        "offer",
        [[BINARY.name], ["msgpack.9", BINARY.name], [BINARY.name, "pickle.1"]],
    )
    def test_an_offer_naming_binary_is_accepted(self, offer):
        assert _reply(pack_hello(offer)) == (BINARY.name, True)

    @pytest.mark.parametrize("offer", [["pickle.1"], ["msgpack.9", "capnp.1"]])
    def test_an_offer_without_binary_is_refused(self, offer):
        text, accepted = _reply(pack_hello(offer))
        assert not accepted
        assert "no codec overlap" in text

    def test_a_pickle_first_frame_is_refused_without_unpickling(self):
        payload = pickle.dumps({"op": "ping"}, protocol=pickle.HIGHEST_PROTOCOL)
        text, accepted = _reply(payload)
        assert not accepted
        assert "requires the codec handshake" in text

    def test_the_largest_offer_still_gets_a_well_formed_reject(self):
        # 255 names of 255 bytes: the reason quotes the offer abridged, so
        # the reply's u16 text length can always hold it.
        text, accepted = _reply(pack_hello(["x" * 255] * 255))
        assert not accepted
        assert "no codec overlap" in text

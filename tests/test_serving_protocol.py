"""Error paths of the wire protocol and the codec handshake.

The PR 7 contract for misbehaving peers: a malformed frame, a garbage
handshake, a wrong wire version, an oversized length prefix, a half-sent
request or a mid-stream disconnect must never crash or hang a front end —
the offending connection is answered (where a reject or an error frame is
possible) or dropped, and the server keeps serving everyone else.  Every
scenario here runs against both front ends (thread-per-connection and
asyncio) through raw sockets, and every test ends by proving the server
still answers a fresh well-behaved client.
"""

import os
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.core.oqp import OptimalQueryParameters
from repro.database.engine import RetrievalEngine
from repro.serving import (
    AsyncRetrievalServer,
    CodecError,
    RetrievalServer,
    ServerConfig,
    ServingClient,
)
from repro.serving.codec import (
    BINARY,
    MAGIC,
    MAX_HELLO_BYTES,
    WIRE_VERSION,
    pack_hello,
    parse_hello,
    parse_reply,
)
from repro.serving.protocol import (
    _PREALLOCATED_FRAME_BYTES,
    MAX_FRAME_BYTES,
    ConnectionClosed,
    recv_payload,
    send_payload,
)
from repro.utils.validation import ValidationError

FRONT_ENDS = {"threaded": RetrievalServer, "async": AsyncRetrievalServer}

pytestmark = [
    pytest.mark.serving,
    pytest.mark.parametrize("front_end", ["threaded", "async"]),
]


@pytest.fixture()
def server(front_end, tiny_collection):
    config = ServerConfig(idle_timeout=30.0)
    with FRONT_ENDS[front_end](RetrievalEngine(tiny_collection), config) as srv:
        yield srv


def _connect(server) -> socket.socket:
    sock = socket.create_connection(server.address, timeout=5.0)
    sock.settimeout(5.0)
    return sock


def _handshake(sock) -> None:
    send_payload(sock, pack_hello([BINARY.name]))
    assert parse_reply(recv_payload(sock)) == BINARY.name


def _closed_by_server(sock) -> bool:
    """True when the next read hits EOF (or a reset) instead of data."""
    try:
        recv_payload(sock)
    except (ConnectionClosed, ConnectionError, TimeoutError):
        return True
    return False


def _assert_still_serving(server, tiny_collection) -> None:
    """The survival check every scenario ends with."""
    host, port = server.address
    with ServingClient(host, port) as client:
        assert client.ping() == "pong"
        result = client.search(tiny_collection.vectors[0], 3)
        assert result == RetrievalEngine(tiny_collection).search(
            tiny_collection.vectors[0], 3
        )


class TestMalformedFrames:
    def test_truncated_header_then_eof(self, server, tiny_collection):
        with _connect(server) as sock:
            _handshake(sock)
            sock.sendall(b"\x00\x00")  # two of the four header bytes
        _assert_still_serving(server, tiny_collection)

    def test_mid_frame_eof(self, server, tiny_collection):
        with _connect(server) as sock:
            _handshake(sock)
            sock.sendall(struct.pack(">I", 100) + b"only ten b")
        _assert_still_serving(server, tiny_collection)

    def test_oversized_frame_is_dropped(self, server, tiny_collection):
        with _connect(server) as sock:
            _handshake(sock)
            sock.sendall(struct.pack(">I", min(MAX_FRAME_BYTES + 1, 0xFFFFFFFF)))
            # The server refuses to allocate for the announced length and
            # drops the connection without reading the (never-sent) body.
            assert _closed_by_server(sock)
        _assert_still_serving(server, tiny_collection)

    def test_undecodable_request_gets_error_frame(self, server, tiny_collection):
        with _connect(server) as sock:
            _handshake(sock)
            send_payload(sock, b"\xffgarbage that is not a binary-codec message")
            response = BINARY.decode(recv_payload(sock))
            assert response["ok"] is False
            assert response["error"] == "codec"
            # The connection survives a bad request: the next one works.
            send_payload(sock, BINARY.encode({"op": "ping"}))
            assert BINARY.decode(recv_payload(sock))["result"] == "pong"
        _assert_still_serving(server, tiny_collection)


class TestHandshakeRejections:
    def test_garbage_after_magic(self, server, tiny_collection):
        with _connect(server) as sock:
            send_payload(sock, MAGIC + struct.pack(">HB", WIRE_VERSION, 3) + b"\x05ab")
            with pytest.raises(CodecError, match="rejected"):
                parse_reply(recv_payload(sock))
            assert _closed_by_server(sock)
        _assert_still_serving(server, tiny_collection)

    def test_version_mismatch(self, server, tiny_collection):
        hello = bytearray(pack_hello([BINARY.name]))
        struct.pack_into(">H", hello, len(MAGIC), WIRE_VERSION + 7)
        with _connect(server) as sock:
            send_payload(sock, bytes(hello))
            with pytest.raises(CodecError, match="wire version"):
                parse_reply(recv_payload(sock))
        _assert_still_serving(server, tiny_collection)

    def test_no_codec_overlap(self, server, tiny_collection):
        with _connect(server) as sock:
            send_payload(sock, pack_hello(["msgpack.9", "capnp.1"]))
            with pytest.raises(CodecError, match="no codec overlap"):
                parse_reply(recv_payload(sock))
        _assert_still_serving(server, tiny_collection)

    def test_empty_offer_is_a_codec_error(self, server, tiny_collection):
        # parse_hello itself refuses an empty offer; over the wire the
        # server answers with a reject carrying that reason.
        with pytest.raises(CodecError, match="no codecs"):
            parse_hello(pack_hello([]))
        with _connect(server) as sock:
            send_payload(sock, pack_hello([]))
            with pytest.raises(CodecError, match="rejected"):
                parse_reply(recv_payload(sock))
        _assert_still_serving(server, tiny_collection)


class TestPickleAlwaysRefused:
    """No configuration serves pickle: both shapes of asking are refused."""

    def test_raw_pickle_first_frame_is_refused(self, server, tiny_collection):
        import pickle

        with _connect(server) as sock:
            send_payload(sock, pickle.dumps({"op": "ping"}, protocol=pickle.HIGHEST_PROTOCOL))
            # The reject is the codec-free handshake reply, not a pickle.
            with pytest.raises(CodecError, match="rejected: .*requires the codec handshake"):
                parse_reply(recv_payload(sock))
            assert _closed_by_server(sock)
        _assert_still_serving(server, tiny_collection)

    def test_pickle_offer_is_refused(self, server, tiny_collection):
        with _connect(server) as sock:
            send_payload(sock, pack_hello(["pickle.1"]))
            with pytest.raises(CodecError, match="no codec overlap"):
                parse_reply(recv_payload(sock))
            assert _closed_by_server(sock)
        _assert_still_serving(server, tiny_collection)


def _exchange(sock, message) -> dict:
    send_payload(sock, BINARY.encode(message))
    return BINARY.decode(recv_payload(sock))


def _assert_connection_answers_ping(sock) -> None:
    assert _exchange(sock, {"op": "ping"}) == {"ok": True, "result": "pong"}


class TestNoJudgeOnTheWire:
    """The server runs no feedback loop of its own, so no request carries a judge."""

    def test_a_feedback_loop_frame_is_an_unknown_op(self, server, tiny_collection):
        with _connect(server) as sock:
            _handshake(sock)
            response = _exchange(
                sock,
                {"op": "feedback_loop", "query_point": tiny_collection.vectors[0], "k": 3},
            )
            assert (response["ok"], response["error"]) == (False, "validation")
            assert "unknown op 'feedback_loop'" in response["message"]
            _assert_connection_answers_ping(sock)
        _assert_still_serving(server, tiny_collection)

    def test_a_judge_tag_is_a_codec_error(self, server, tiny_collection):
        # The retired "J" tag: a CategoryJudge's labels, category and scale.
        placeholder = BINARY.encode("judge-goes-here")
        judge = b"J" + BINARY.encode(["a", "b"]) + BINARY.encode("a") + BINARY.encode("binary")
        payload = BINARY.encode({"op": "ping", "judge": "judge-goes-here"})
        assert payload.count(placeholder) == 1
        with _connect(server) as sock:
            _handshake(sock)
            send_payload(sock, payload.replace(placeholder, judge))
            response = BINARY.decode(recv_payload(sock))
            assert (response["ok"], response["error"]) == (False, "codec")
            _assert_connection_answers_ping(sock)
        _assert_still_serving(server, tiny_collection)


class TestRemovedOps:
    """One request shape per served call: mixed-k batches and batch inserts are gone."""

    @pytest.mark.parametrize("op", ["run_batch", "bypass_insert_batch"])
    def test_a_removed_op_is_an_unknown_op(self, server, tiny_collection, op):
        vectors = tiny_collection.vectors
        messages = {
            "run_batch": {"op": "run_batch", "queries": [(vectors[0], 3), (vectors[1], 5)]},
            "bypass_insert_batch": {
                "op": "bypass_insert_batch",
                "query_points": vectors[:2],
                "parameters": [OptimalQueryParameters.default(tiny_collection.dimension)] * 2,
            },
        }
        with _connect(server) as sock:
            _handshake(sock)
            response = _exchange(sock, messages[op])
            assert (response["ok"], response["error"]) == (False, "validation")
            assert f"unknown op {op!r}" in response["message"]
            _assert_connection_answers_ping(sock)
        _assert_still_serving(server, tiny_collection)


def _complete_requests(collection) -> dict:
    """One well-formed request of every op that has required fields."""
    vectors, dimension = collection.vectors, collection.dimension
    return {
        "search": {"query_point": vectors[0], "k": 3},
        "search_batch": {"query_points": vectors[:2], "k": 3},
        "search_with_parameters": {
            "query_point": vectors[0], "k": 3, "delta": np.zeros(dimension), "weights": np.ones(dimension),
        },
        "search_batch_with_parameters": {
            "query_points": vectors[:2], "k": 3,
            "deltas": np.zeros((2, dimension)), "weights": np.ones((2, dimension)),
        },
        "session_open": {"query_point": vectors[0], "k": 3},
        "session_feedback": {"session_id": 1, "indices": np.array([0]), "scores": np.array([1.0])},
        "session_close": {"session_id": 1},
        "bypass_mopt": {"query_point": vectors[0]},
        "bypass_insert": {"query_point": vectors[0], "parameters": OptimalQueryParameters.default(dimension)},
        "insert": {"vectors": vectors[:1]},
        "delete": {"ids": np.array([0])},
    }


class TestMalformedRequests:
    """A request missing a field, or carrying text for a vector, answers the typed ``validation`` error."""

    def test_every_op_with_required_fields_is_covered(self, server, tiny_collection):
        required = {op for op, (_, fields) in server._core._ops.items() if fields}
        assert required == set(_complete_requests(tiny_collection))

    def test_a_missing_field_is_a_validation_error(self, server, tiny_collection):
        with _connect(server) as sock:
            _handshake(sock)
            for op, fields in _complete_requests(tiny_collection).items():
                for missing in fields:
                    message = {"op": op, **fields}
                    del message[missing]
                    response = _exchange(sock, message)
                    assert (response["ok"], response["error"]) == (False, "validation"), (op, missing)
                    assert missing in response["message"], (op, missing)
                    _assert_connection_answers_ping(sock)
        _assert_still_serving(server, tiny_collection)

    @pytest.mark.parametrize("op,field", [("search", "query_point"), ("search_batch", "query_points")])
    def test_text_for_a_vector_is_a_validation_error(self, server, tiny_collection, op, field):
        message = {"op": op, **_complete_requests(tiny_collection)[op], field: "abc"}
        with _connect(server) as sock:
            _handshake(sock)
            response = _exchange(sock, message)
            assert (response["ok"], response["error"]) == (False, "validation")
            _assert_connection_answers_ping(sock)
        _assert_still_serving(server, tiny_collection)


    def test_text_for_a_vector_fails_in_the_client(self, server, monkeypatch):
        """``client.search("abc", 3)`` raises the typed error before any frame leaves."""
        import repro.serving.client as client_module

        sent = []
        host, port = server.address
        with ServingClient(host, port) as client:
            monkeypatch.setattr(
                client_module,
                "send_payload",
                lambda sock, payload: (sent.append(payload), send_payload(sock, payload))[1],
            )
            with pytest.raises(ValidationError, match="query_point"):
                client.search("abc", 3)
            assert sent == []
            assert client.ping() == "pong"
        assert len(sent) == 1


class TestConfigFailsBeforeBinding:
    """A float setting no socket accepts is refused before any socket binds."""

    @pytest.mark.parametrize(
        "field,value",
        [
            ("idle_timeout", float("nan")),
            ("idle_timeout", float("inf")),
            ("idle_timeout", 0.0),
            ("idle_timeout", -1.0),
            ("variance_floor", 0.0),
            ("variance_floor", -1e-6),
            ("variance_floor", float("nan")),
            ("bypass_epsilon", -0.1),
            ("bypass_epsilon", float("nan")),
            ("bypass_margin", -0.1),
            ("bypass_margin", float("inf")),
        ],
        ids=lambda value: repr(value) if isinstance(value, float) else value,
    )
    def test_a_bad_float_field_raises_before_any_socket_binds(
        self, front_end, tiny_collection, monkeypatch, field, value
    ):
        bound = []
        monkeypatch.setattr(socket.socket, "bind", lambda sock, address: bound.append(address))
        with pytest.raises(ValidationError, match=field):
            with FRONT_ENDS[front_end](
                RetrievalEngine(tiny_collection), ServerConfig(**{field: value})
            ):
                pass  # pragma: no cover - the config never constructs
        assert bound == []

    def test_the_float_fields_keep_their_accepted_edges(self, front_end):
        config = ServerConfig(idle_timeout=None, bypass_epsilon=0.0, bypass_margin=0.0)
        assert (config.idle_timeout, config.bypass_epsilon, config.bypass_margin) == (
            None,
            0.0,
            0.0,
        )


class TestSessionJudgmentsFromTheWire:
    """Raw judgments are validated before any cast, and a bad round is no round."""

    @pytest.mark.parametrize(
        "indices,scores",
        [([1.7, 2.2], [1.0, 1.0]), ([1, 2], 1.0)],
        ids=["float-indices", "0d-scores"],
    )
    def test_malformed_judgments_are_validation_errors(
        self, server, tiny_collection, indices, scores
    ):
        with _connect(server) as sock:
            _handshake(sock)
            opened = _exchange(
                sock, {"op": "session_open", "query_point": tiny_collection.vectors[0], "k": 5}
            )["result"]
            response = _exchange(
                sock,
                {
                    "op": "session_feedback",
                    "session_id": opened["session_id"],
                    "indices": indices,
                    "scores": scores,
                },
            )
            assert (response["ok"], response["error"]) == (False, "validation")
            # The session did not advance.
            loop = _exchange(sock, {"op": "session_close", "session_id": opened["session_id"]})
            assert (loop["result"].iterations, loop["result"].reason) == (0, "active")
            _assert_connection_answers_ping(sock)
        _assert_still_serving(server, tiny_collection)


class TestFirstFrameCap:
    """The first frame is read under the largest hello's size."""

    def test_oversized_first_frame_is_closed_before_allocating(self, server, tiny_collection):
        with _connect(server) as sock:
            # A header announcing ~1 GiB, no body, no handshake.  Without
            # the cap the server preallocates the announced length and then
            # waits out its idle timeout (30 s here) for the body.
            sock.sendall(struct.pack(">I", 0x3FFFFFFF))
            try:
                closed = sock.recv(1) == b""
            except ConnectionError:
                closed = True
            except TimeoutError:
                closed = False
            assert closed, "the connection was still open after the socket's 5 s timeout"
        _assert_still_serving(server, tiny_collection)

    def test_the_largest_hello_is_still_answered(self, server, tiny_collection):
        hello = pack_hello(["x" * 255] * 255)
        assert len(hello) == MAX_HELLO_BYTES
        with _connect(server) as sock:
            send_payload(sock, hello)
            with pytest.raises(CodecError, match="no codec overlap"):
                parse_reply(recv_payload(sock))
        _assert_still_serving(server, tiny_collection)


def _rss_bytes() -> int:
    """This process's resident set size (the servers under test run in it)."""
    with open("/proc/self/statm", encoding="ascii") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class TestFrameMemoryFollowsArrivals:
    """After the handshake, a frame costs memory as its bytes arrive."""

    def test_a_bare_huge_header_allocates_little(self, server, tiny_collection):
        with _connect(server) as sock:
            _handshake(sock)
            before = _rss_bytes()
            # A header announcing ~1 GiB, then nothing.  A reader that
            # allocates the announced length up front grows by ~1 GiB.
            sock.sendall(struct.pack(">I", 0x3FFFFFFF))
            grown = 0
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                grown = max(grown, _rss_bytes() - before)
                time.sleep(0.02)
            assert grown < 64 << 20, f"server RSS grew by {grown >> 20} MB"
        _assert_still_serving(server, tiny_collection)

    def test_a_multi_megabyte_request_answers_byte_identically(self, server, tiny_collection):
        # Three float64 matrices per request: ~3 MB with few result rows.
        rng = np.random.default_rng(29)
        rows = (3 * _PREALLOCATED_FRAME_BYTES) // (3 * 8 * tiny_collection.dimension) + 1
        queries, deltas = rng.random((2, rows, tiny_collection.dimension))
        weights = rng.random((rows, tiny_collection.dimension)) + 0.5
        message = BINARY.encode(
            {
                "op": "search_batch_with_parameters",
                "query_points": queries,
                "deltas": deltas,
                "weights": weights,
                "k": 2,
            }
        )
        assert len(message) > 3 * _PREALLOCATED_FRAME_BYTES
        expected = RetrievalEngine(tiny_collection).search_batch_with_parameters(
            queries, 2, deltas, weights
        )
        host, port = server.address
        with ServingClient(host, port) as client:
            assert client.search_batch_with_parameters(queries, 2, deltas, weights) == expected
        _assert_still_serving(server, tiny_collection)


class TestStreamingAndStalls:
    @pytest.fixture()
    def chunking_server(self, front_end, tiny_collection):
        config = ServerConfig(stream_chunk_items=2, idle_timeout=30.0)
        with FRONT_ENDS[front_end](RetrievalEngine(tiny_collection), config) as srv:
            yield srv

    def test_disconnect_mid_chunked_stream(self, chunking_server, tiny_collection):
        """A client that walks away mid-stream costs only its own socket."""
        queries = tiny_collection.vectors[:9]
        with _connect(chunking_server) as sock:
            _handshake(sock)
            message = {"op": "search_batch", "query_points": np.asarray(queries), "k": 3}
            send_payload(sock, BINARY.encode(message))
            header = BINARY.decode(recv_payload(sock))
            assert header["ok"] and header["chunked"] > 1
            recv_payload(sock)  # take one chunk ...
            # ... and vanish with the rest of the stream unread.
        _assert_still_serving(chunking_server, tiny_collection)

    def test_idle_timeout_reaps_stalled_connections(self, front_end, tiny_collection):
        config = ServerConfig(idle_timeout=0.3)
        with FRONT_ENDS[front_end](RetrievalEngine(tiny_collection), config) as server:
            with _connect(server) as sock:
                _handshake(sock)
                # Half-open behaviour: send nothing and hold the socket.
                deadline = time.monotonic() + 5.0
                closed = False
                while time.monotonic() < deadline and not closed:
                    closed = _closed_by_server(sock)
                assert closed, "the stalled connection was never reaped"
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    if server.stats()["connections"]["open"] == 0:
                        break
                    time.sleep(0.02)
                assert server.stats()["connections"]["open"] == 0
            _assert_still_serving(server, tiny_collection)

    def test_slow_loris_header_is_reaped(self, front_end, tiny_collection):
        """A byte-at-a-time header cannot pin a handler past the timeout."""
        config = ServerConfig(idle_timeout=0.3)
        with FRONT_ENDS[front_end](RetrievalEngine(tiny_collection), config) as server:
            with _connect(server) as sock:
                _handshake(sock)
                sock.sendall(b"\x00")  # one header byte, then stall
                deadline = time.monotonic() + 5.0
                closed = False
                while time.monotonic() < deadline and not closed:
                    closed = _closed_by_server(sock)
                assert closed
            _assert_still_serving(server, tiny_collection)


class TestConcurrentAbuse:
    def test_many_abusive_connections_do_not_starve_service(
        self, server, tiny_collection
    ):
        """A burst of malformed peers while a real client keeps working."""
        host, port = server.address
        abuse_payloads = [
            b"\x00\x00",  # truncated header
            struct.pack(">I", 50) + b"short",  # mid-frame EOF
            MAGIC + b"\xff\xff\xff",  # garbage handshake
        ]
        stop = threading.Event()
        errors = []

        def abuser(payload):
            try:
                for _ in range(10):
                    if stop.is_set():
                        return
                    with socket.create_connection((host, port), timeout=5.0) as sock:
                        sock.sendall(payload)
            except OSError:
                pass  # the server tearing us down mid-send is expected
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=abuser, args=(payload,))
            for payload in abuse_payloads * 3
        ]
        for thread in threads:
            thread.start()
        try:
            reference = RetrievalEngine(tiny_collection).search(
                tiny_collection.vectors[1], 4
            )
            with ServingClient(host, port) as client:
                for _ in range(20):
                    assert client.search(tiny_collection.vectors[1], 4) == reference
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors

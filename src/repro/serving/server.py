"""The serving core and the threaded network front end.

:class:`ServingCore` is the transport-independent heart of the serving
layer: one shared engine, the request/frontier coalescers, the interactive
session registry, the op table, and the connection / in-flight bookkeeping.
Both front ends — the thread-per-connection :class:`RetrievalServer` here
and the event-loop :class:`~repro.serving.async_server.AsyncRetrievalServer`
— are thin byte-shufflers around the same core, so results are
byte-identical whichever one answers (tier-1,
``tests/test_serving_equivalence.py``).

:class:`RetrievalServer` binds a TCP port and serves the full retrieval
query contract — ``search`` / ``search_batch`` / ``run_batch`` / k-NN with
per-query ``(Δ, W)`` parameters — plus relevance-feedback loops (judge
shipped to the server, run on the shared
:class:`~repro.serving.coalescer.FrontierCoalescer`) and interactive
multi-round sessions (judgments shipped per round, state held by the
:class:`~repro.serving.sessions.SessionManager`), over the length-prefixed
frames of :mod:`repro.serving.protocol` behind the codec handshake of
:mod:`repro.serving.codec`, after which every frame is the binary codec.

Concurrency here is threads-per-connection
(:class:`socketserver.ThreadingTCPServer`), which is exactly the shape the
coalescers feed on — handler threads park their queries in the shared
micro-batch window / frontier and the batched machinery of the layers below
does the work — but caps out around thousands of sockets; the async front
end holds tens of thousands on a handful of threads.

Lifecycle: :meth:`RetrievalServer.close` (or the context manager) stops
accepting, refuses new feedback loops while draining the in-flight ones
(bounded by the iteration budget), disconnects the remaining clients and —
when the server owns the engine — closes the engine too, releasing worker
processes and shared-memory segments deterministically.
"""

from __future__ import annotations

import socket
import socketserver
import threading
from dataclasses import dataclass

import numpy as np

from repro.core.oqp import OptimalQueryParameters
from repro.database.budget import Budget
from repro.database.engine import run_grouped_by_k
from repro.database.query import Query
from repro.database.segments import Compactor
from repro.feedback.engine import FeedbackEngine
from repro.feedback.reweighting import ReweightingRule
from repro.feedback.scheduler import LoopRequest
from repro.serving.bypass_registry import DEFAULT_TENANT, BypassRegistry
from repro.serving.coalescer import FrontierCoalescer, RequestCoalescer
from repro.serving.codec import (
    BINARY,
    MAX_HELLO_BYTES,
    CodecError,
    answer_hello,
    encode_response_frames,
)
from repro.serving.protocol import (
    QUERY_WIRE_KEYS,
    ConnectionClosed,
    ProtocolError,
    recv_payload,
    send_payload,
)
from repro.serving.sessions import SessionManager
from repro.utils.validation import ValidationError, check_dimension

__all__ = ["ServerConfig", "ServingCore", "RetrievalServer"]

#: Protocol revision, echoed by the ``info`` op so clients can sanity-check.
#: Version 2 added the codec handshake, the binary codec and chunked
#: streaming of large responses; it is the only version served.
PROTOCOL_VERSION = 2


@dataclass(frozen=True)
class ServerConfig:
    """Knobs of a serving front end (threaded or async).

    Attributes
    ----------
    host, port:
        Bind address.  Port ``0`` (default) asks the OS for an ephemeral
        port — read the real one from :attr:`RetrievalServer.address`.
    max_batch, max_wait:
        The micro-batch window of the request coalescer: ``max_batch``
        caps a window's rows (``1`` disables coalescing — per-connection
        dispatch, up to one engine call per core at once), ``max_wait``
        optionally holds a not-yet-full window open to grow it (``0.0``,
        the default, is pure continuous batching: no deliberate delay,
        sharing comes from backpressure once every dispatch slot is busy).
        ``max_wait`` also paces the frontier coalescer's admission window.
    solo_grace:
        Gather time (seconds) a *lone* submitter still concedes before
        dispatching solo when ``max_wait`` is on — the coalescer's solo
        fast path.  Per-server because C10K tuning moves it: many mostly-
        idle connections want it tiny, few hot ones can afford more.
    reweighting_rule, move_query_point, max_iterations, variance_floor:
        The feedback-engine configuration the server runs loops and
        sessions under — match them to the
        :class:`~repro.evaluation.session.SessionConfig` being reproduced.
    idle_timeout:
        Seconds a connection may sit mid-read (or mid-write) before the
        server drops it; ``None`` disables.  A stalled or half-open client
        can therefore never pin a handler thread or an event-loop slot
        forever.
    stream_chunk_items:
        Responses whose result list is longer than this stream as chunked
        sub-frames of at most this many items, bounding peak frame size for
        large ``run_batch`` answers.
    executor_threads:
        Size of the async front end's dispatch pool — the number of
        requests that can *block* in the coalescers concurrently.  Ignored
        by the threaded front end (each connection brings its own thread).
    bypass:
        Enable the shared served bypass: one multi-tenant
        :class:`~repro.serving.bypass_registry.BypassRegistry` of Simplex
        Trees served through the ``bypass_*`` ops and (by default) trained
        by every retired ``feedback_loop``.
    bypass_epsilon, bypass_margin:
        The shared trees' insert ε-gate and the bounding-simplex margin
        around the corpus (see ``BypassRegistry.for_engine``).
    bypass_train_on_loops:
        When on (default), every loop retired by the frontier coalescer
        inserts its converged parameters into the requesting tenant's tree
        — later clients' loops start from the prediction and shorten.
    bypass_snapshot_dir, bypass_snapshot_every:
        Warm-start persistence: directory for per-tenant snapshots +
        insert logs (``None`` disables), and the applied-insert cadence of
        periodic snapshots (``0`` = only on close/evict).
    bypass_max_nodes, bypass_max_tenants:
        The size/eviction policy: cap stored points per tree, cap resident
        tenant trees (least-recently-trained is evicted, snapshot first).
    autocompact_delta_rows:
        When the engine serves a live collection, start a server-owned
        :class:`~repro.database.segments.Compactor` thread that folds the
        delta segments into a new base whenever this many rows accumulate
        outside it (``None``, the default, leaves compaction to explicit
        ``compact`` ops).  The fold's heavy phase runs off the mutation
        lock, so coalesced query windows keep dispatching while it runs.
    frontier_turn_searches:
        Anytime degradation of the shared feedback frontier: each driver
        round advances at most this many active loops (oldest first)
        instead of the whole frontier, bounding one round's dispatch under
        load — overload defers iterations instead of queueing bigger
        batches, and deferral never changes any loop's bits.  ``None``
        (default) advances every active loop every round.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_batch: int = 64
    max_wait: float = 0.0
    solo_grace: float = RequestCoalescer.SOLO_GRACE
    reweighting_rule: ReweightingRule = ReweightingRule.OPTIMAL
    move_query_point: bool = True
    max_iterations: int = 10
    variance_floor: float = 1e-6
    idle_timeout: "float | None" = 300.0
    stream_chunk_items: int = 1024
    executor_threads: int = 32
    bypass: bool = False
    bypass_epsilon: float = 0.0
    bypass_margin: float = 0.25
    bypass_train_on_loops: bool = True
    bypass_snapshot_dir: "str | None" = None
    bypass_snapshot_every: int = 256
    bypass_max_nodes: "int | None" = None
    bypass_max_tenants: int = 64
    autocompact_delta_rows: "int | None" = None
    frontier_turn_searches: "int | None" = None

    def __post_init__(self) -> None:
        if self.autocompact_delta_rows is not None:
            check_dimension(self.autocompact_delta_rows, "autocompact_delta_rows")
        if self.frontier_turn_searches is not None:
            check_dimension(self.frontier_turn_searches, "frontier_turn_searches")
        check_dimension(self.max_batch, "max_batch")
        check_dimension(self.max_iterations, "max_iterations")
        check_dimension(self.stream_chunk_items, "stream_chunk_items")
        check_dimension(self.executor_threads, "executor_threads")
        check_dimension(self.bypass_max_tenants, "bypass_max_tenants")
        if self.bypass_max_nodes is not None:
            check_dimension(self.bypass_max_nodes, "bypass_max_nodes")
        if self.max_wait < 0:
            raise ValidationError("max_wait must be non-negative")
        if self.solo_grace < 0:
            raise ValidationError("solo_grace must be non-negative")
        if self.bypass_epsilon < 0:
            raise ValidationError("bypass_epsilon must be non-negative")
        if self.bypass_margin < 0:
            raise ValidationError("bypass_margin must be non-negative")
        if self.bypass_snapshot_every < 0:
            raise ValidationError("bypass_snapshot_every must be non-negative")
        if self.idle_timeout is not None and self.idle_timeout <= 0:
            raise ValidationError("idle_timeout must be positive (or None to disable)")


class ServingCore:
    """Transport-independent serving state shared by every front end.

    One engine — a :class:`~repro.database.engine.RetrievalEngine` or a
    :class:`~repro.database.sharding.ShardedEngine` on either backend — is
    shared by every connection; searches are read-only and counters are
    lock-protected, so no extra synchronisation is needed.  The core owns
    the coalescers, the session registry, the op table and the connection /
    in-flight accounting; front ends own sockets and the handshake.
    """

    def __init__(self, engine, config: "ServerConfig | None" = None) -> None:
        self.engine = engine
        self.config = config if config is not None else ServerConfig()
        self.feedback = FeedbackEngine(
            engine,
            reweighting_rule=self.config.reweighting_rule,
            move_query_point=self.config.move_query_point,
            max_iterations=self.config.max_iterations,
            variance_floor=self.config.variance_floor,
        )
        self.coalescer = RequestCoalescer(
            engine,
            max_batch=self.config.max_batch,
            max_wait=self.config.max_wait,
            solo_grace=self.config.solo_grace,
        )
        self.bypass: "BypassRegistry | None" = None
        if self.config.bypass:
            self.bypass = BypassRegistry.for_engine(
                engine,
                margin=self.config.bypass_margin,
                epsilon=self.config.bypass_epsilon,
                snapshot_dir=self.config.bypass_snapshot_dir,
                snapshot_every=self.config.bypass_snapshot_every,
                max_nodes=self.config.bypass_max_nodes,
                max_tenants=self.config.bypass_max_tenants,
            )
        on_retire = None
        if self.bypass is not None and self.config.bypass_train_on_loops:
            on_retire = self._train_from_loop
        self.frontier = FrontierCoalescer(
            self.feedback,
            max_wait=self.config.max_wait,
            on_retire=on_retire,
            turn_limit=self.config.frontier_turn_searches,
        )
        self.sessions = SessionManager(self.feedback, self.coalescer)
        self.compactor: "Compactor | None" = None
        if self.config.autocompact_delta_rows is not None:
            live = getattr(engine, "collection", None)
            if not getattr(engine, "is_live", False):
                raise ValidationError(
                    "autocompact_delta_rows requires an engine over a LiveCollection"
                )
            self.compactor = Compactor(
                live, min_delta_rows=self.config.autocompact_delta_rows
            ).start()
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._n_open = 0
        self._n_accepted = 0
        self._in_flight = 0
        self._ops = {
            "ping": self._op_ping,
            "info": self._op_info,
            "stats": self._op_stats,
            **dict.fromkeys(QUERY_WIRE_KEYS, self._op_query),
            "run_batch": self._op_run_batch,
            "feedback_loop": self._op_feedback_loop,
            "session_open": self._op_session_open,
            "session_feedback": self._op_session_feedback,
            "session_close": self._op_session_close,
            "bypass_mopt": self._op_bypass_mopt,
            "bypass_insert": self._op_bypass_insert,
            "bypass_insert_batch": self._op_bypass_insert_batch,
            "bypass_stats": self._op_bypass_stats,
            "insert": self._op_insert,
            "delete": self._op_delete,
            "compact": self._op_compact,
            "corpus_stats": self._op_corpus_stats,
        }

    # ------------------------------------------------------------------ #
    # Connection and in-flight accounting
    # ------------------------------------------------------------------ #
    def connection_opened(self) -> None:
        with self._lock:
            self._n_open += 1
            self._n_accepted += 1

    def connection_closed(self, owner) -> None:
        with self._lock:
            self._n_open -= 1
        self.sessions.drop_owner(owner)

    def begin_request(self) -> None:
        with self._lock:
            self._in_flight += 1

    def end_request(self) -> None:
        with self._lock:
            self._in_flight -= 1
            if self._in_flight == 0:
                self._idle.notify_all()

    def wait_idle(self, timeout: float) -> None:
        """Block until no request is in flight (bounded) — the drain step."""
        with self._lock:
            self._idle.wait_for(lambda: self._in_flight == 0, timeout=timeout)

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def respond(self, message, owner) -> dict:
        """Serve one request; failures become error responses, not crashes."""
        try:
            if not isinstance(message, dict) or "op" not in message:
                raise ValidationError("requests must be dicts with an 'op' key")
            handler = self._ops.get(message["op"])
            if handler is None:
                raise ValidationError(f"unknown op {message['op']!r}")
            return {"ok": True, "result": handler(message, owner)}
        except ValidationError as error:
            return {"ok": False, "error": "validation", "message": str(error)}
        except Exception as error:  # noqa: BLE001 - shipped to the client
            return {"ok": False, "error": type(error).__name__, "message": str(error)}

    def serve_frames(self, payload, owner) -> "list[bytes]":
        """Decode, dispatch and encode one request into its response frames.

        This is the whole blocking span of one request — the threaded
        handler runs it on its own thread, the async server inside an
        executor slot.  Callers bracket it (plus the send) with
        :meth:`begin_request` / :meth:`end_request` so a draining
        :meth:`shutdown` never cuts a connection mid-answer.  Decode errors
        become error responses rather than dropped connections: the framing
        is intact, only the payload is bad.
        """
        try:
            message = BINARY.decode(payload)
        except CodecError as error:
            response = {"ok": False, "error": "codec", "message": str(error)}
        else:
            response = self.respond(message, owner)
        try:
            return encode_response_frames(
                response, BINARY, chunk_items=self.config.stream_chunk_items
            )
        except CodecError as error:
            # The *result* could not travel on the wire (an exotic object
            # the binary codec does not carry) — tell the client why.
            return [BINARY.encode({"ok": False, "error": "codec", "message": str(error)})]

    def stats(self) -> dict:
        """One aggregated snapshot of every serving-layer counter."""
        with self._lock:
            connections = {"open": self._n_open, "accepted": self._n_accepted}
        snapshot = {
            "engine": self.engine.stats(),
            "coalescer": self.coalescer.stats(),
            "frontier": self.frontier.stats(),
            "sessions": self.sessions.stats(),
            "connections": connections,
            "bypass": None if self.bypass is None else self.bypass.stats(),
        }
        if getattr(self.engine, "is_live", False):
            # Gated on live corpora so frozen servers keep their exact
            # historical stats shape.
            snapshot["corpus"] = self.engine.collection.corpus_stats()
        return snapshot

    def shutdown(self, *, own_engine: bool, drain_timeout: float = 10.0) -> None:
        """Drain the frontier and in-flight requests, then release state."""
        if self.compactor is not None:
            self.compactor.close()
        self.frontier.close()
        self.wait_idle(drain_timeout)
        self.sessions.clear()
        if self.bypass is not None:
            # After the frontier drained: the last retired loop has trained,
            # so the final snapshot captures everything served.
            self.bypass.close()
        if own_engine:
            close = getattr(self.engine, "close", None)
            if close is not None:
                close()

    # ------------------------------------------------------------------ #
    # Ops
    # ------------------------------------------------------------------ #
    def _op_ping(self, message, owner) -> str:
        return "pong"

    def _op_info(self, message, owner) -> dict:
        info = {
            "protocol_version": PROTOCOL_VERSION,
            "max_batch": self.config.max_batch,
            "max_wait": self.config.max_wait,
            "max_iterations": self.config.max_iterations,
            "reweighting_rule": self.config.reweighting_rule.name,
            "move_query_point": self.config.move_query_point,
            "bypass": self.bypass is not None,
        }
        info.update(self.engine.describe())
        return info

    def _op_stats(self, message, owner) -> dict:
        return self.stats()

    @staticmethod
    def _wire_budget(message) -> "Budget | None":
        """The request's budget, rebuilt server-side (deadline restarts here)."""
        spec = message.get("budget")
        if spec is None:
            return None
        return Budget.from_wire(spec)

    def _op_query(self, message, owner):
        """The four k-NN query ops, driven by :data:`QUERY_WIRE_KEYS`.

        One-row ops lift their vectors to one-row matrices and unwrap the
        single result.  Unbudgeted requests ride the coalescer's shared
        windows; budgeted ones bypass it — a budget is one request's private
        accounting, so its dispatch cannot share a window with unbudgeted
        peers — and answer with the coverage report beside the results.
        Either way the engine is entered through ``search_batch`` /
        ``search_batch_with_parameters``.
        """
        array_keys, result_key = QUERY_WIRE_KEYS[message["op"]]
        arrays = [message[key] for key in array_keys]
        single = result_key == "result"
        if single:
            arrays = [
                np.atleast_1d(np.asarray(array, dtype=np.float64))[None, :] for array in arrays
            ]
        if len(array_keys) == 1:
            submit, search = self.coalescer.submit_search, self.engine.search_batch
        else:
            submit = self.coalescer.submit_search_with_parameters
            search = self.engine.search_batch_with_parameters
        points, *parameters = arrays
        budget = self._wire_budget(message)
        if budget is None:
            results = submit(points, message["k"], *parameters)
            return results[0] if single else results
        results = search(points, message["k"], *parameters, budget=budget)
        return {
            result_key: results[0] if single else results,
            "coverage": budget.coverage().to_dict(),
        }

    def _op_run_batch(self, message, owner):
        queries = [Query(point=point, k=k) for point, k in message["queries"]]
        return run_grouped_by_k(
            lambda points, k, distance: self.coalescer.submit_search(points, k), queries
        )

    @staticmethod
    def _loop_budget(message) -> "int | None":
        """The feedback op's budget: an iteration cap for this one loop."""
        spec = message.get("budget")
        if spec is None:
            return None
        if not isinstance(spec, dict):
            raise ValidationError("feedback budget must be a dict")
        unknown = set(spec) - {"max_iterations"}
        if unknown:
            raise ValidationError(f"unknown feedback budget keys {sorted(unknown)!r}")
        return spec.get("max_iterations")

    def _op_feedback_loop(self, message, owner):
        request = LoopRequest(
            query_point=np.atleast_1d(np.asarray(message["query_point"], dtype=np.float64)),
            k=message["k"],
            judge=message["judge"],
            initial_delta=message.get("initial_delta"),
            initial_weights=message.get("initial_weights"),
            max_iterations=self._loop_budget(message),
        )
        return self.frontier.run_loop(request, context=self._tenant_of(message))

    def _op_session_open(self, message, owner) -> dict:
        session = self.sessions.open(
            owner,
            message["query_point"],
            message["k"],
            message.get("initial_delta"),
            message.get("initial_weights"),
        )
        cursor = session.cursor
        return {
            "session_id": session.session_id,
            "results": cursor.results,
            "iterations": cursor.iterations,
            "done": cursor.done,
        }

    def _op_session_feedback(self, message, owner) -> dict:
        return self.sessions.feedback(
            message["session_id"], owner, message["indices"], message["scores"]
        )

    def _op_session_close(self, message, owner):
        return self.sessions.close(message["session_id"], owner)

    # ------------------------------------------------------------------ #
    # The shared served bypass
    # ------------------------------------------------------------------ #
    @staticmethod
    def _tenant_of(message) -> str:
        """The request envelope's tenant namespace (``None`` → public)."""
        tenant = message.get("tenant")
        return DEFAULT_TENANT if tenant is None else tenant

    def _require_bypass(self) -> BypassRegistry:
        if self.bypass is None:
            raise ValidationError(
                "the shared served bypass is disabled on this server "
                "(enable it with ServerConfig(bypass=True))"
            )
        return self.bypass

    def _train_from_loop(self, request, result, tenant) -> None:
        """Frontier retirement sink: deposit a converged loop in the tree.

        Applies the evaluation session's insert policy
        (:meth:`~repro.feedback.engine.FeedbackLoopResult.parameters_to_store`).
        Runs on the frontier driver thread; failures (e.g. a query outside
        the root simplex, or a closing registry) are swallowed by the
        coalescer so delivery never breaks.
        """
        optimal = result.parameters_to_store(request.query_point)
        if optimal is None:
            return
        self.bypass.insert(
            tenant if tenant is not None else DEFAULT_TENANT,
            request.query_point,
            optimal,
        )

    def _op_bypass_mopt(self, message, owner) -> OptimalQueryParameters:
        registry = self._require_bypass()
        point = np.atleast_1d(np.asarray(message["query_point"], dtype=np.float64))
        return registry.mopt(self._tenant_of(message), point)

    def _op_bypass_insert(self, message, owner):
        registry = self._require_bypass()
        parameters = message["parameters"]
        if not isinstance(parameters, OptimalQueryParameters):
            raise ValidationError(
                "bypass_insert needs OptimalQueryParameters in 'parameters'"
            )
        point = np.atleast_1d(np.asarray(message["query_point"], dtype=np.float64))
        return registry.insert(self._tenant_of(message), point, parameters)

    def _op_bypass_insert_batch(self, message, owner):
        registry = self._require_bypass()
        parameters = message["parameters"]
        if not isinstance(parameters, (list, tuple)) or not all(
            isinstance(item, OptimalQueryParameters) for item in parameters
        ):
            raise ValidationError(
                "bypass_insert_batch needs a list of OptimalQueryParameters "
                "in 'parameters'"
            )
        return registry.insert_batch(
            self._tenant_of(message), message["query_points"], parameters
        )

    def _op_bypass_stats(self, message, owner) -> dict:
        registry = self._require_bypass()
        return registry.stats(message.get("tenant"))

    # ------------------------------------------------------------------ #
    # Live-corpus mutation ops
    # ------------------------------------------------------------------ #
    def _require_live(self):
        if not getattr(self.engine, "is_live", False):
            raise ValidationError(
                "the server's corpus is frozen (serve an engine over a "
                "LiveCollection to enable mutation ops)"
            )
        return self.engine.collection

    def _op_insert(self, message, owner) -> np.ndarray:
        """Append vectors to the live corpus; returns their stable ids.

        The vectors travel on the binary codec as one float64 matrix frame;
        every query dispatched after this op returns (coalesced windows
        included) sees them.
        """
        live = self._require_live()
        return live.insert(message["vectors"], message.get("labels"))

    def _op_delete(self, message, owner) -> int:
        """Tombstone stable ids; returns how many were deleted."""
        live = self._require_live()
        return live.delete(message["ids"])

    def _op_compact(self, message, owner) -> dict:
        """Fold deltas + tombstones into a fresh base, off the query path.

        Runs on this request's handler thread, but the fold's heavy phase
        holds no lock the query path needs, so coalesced windows keep
        dispatching while it runs.
        """
        live = self._require_live()
        return live.compact()

    def _op_corpus_stats(self, message, owner) -> dict:
        """Deterministic segment/tombstone/compaction counters of the corpus.

        For a frozen corpus this still answers (``live: False`` plus the
        static size) so clients can probe mutability without an error
        round-trip; every other mutation op raises on frozen corpora.
        """
        if not getattr(self.engine, "is_live", False):
            return {"live": False, "size": int(self.engine.collection.size)}
        return self.engine.collection.corpus_stats()


class _TCPServer(socketserver.ThreadingTCPServer):
    """Thread-per-connection TCP front end bound to one serving instance."""

    daemon_threads = True
    allow_reuse_address = True
    # socketserver's default backlog is 5 — a burst of connecting clients
    # (the C10K benchmark's idle swarm, or any thundering herd) would see
    # refused connections.  The listen queue is cheap; make it deep.
    request_queue_size = 1024

    def __init__(self, address, serving: "RetrievalServer") -> None:
        super().__init__(address, _ConnectionHandler)
        self.serving = serving


class _ConnectionHandler(socketserver.BaseRequestHandler):
    """One client connection: handshake, then a strict frame loop."""

    def handle(self) -> None:
        serving: "RetrievalServer" = self.server.serving
        core = serving._core
        config = core.config
        sock = self.request
        owner = object()  # unique ownership token of this connection
        serving._register_connection(sock)
        core.connection_opened()
        try:
            # Responses are many small frames; never wait for Nagle.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if config.idle_timeout is not None:
                # A stalled or half-open peer trips this and is dropped —
                # it can never pin the handler thread forever.
                sock.settimeout(config.idle_timeout)
            reply, accepted = answer_hello(recv_payload(sock, MAX_HELLO_BYTES))
            send_payload(sock, reply)
            while accepted:
                try:
                    payload = recv_payload(sock)
                except ConnectionClosed:
                    break
                # The response leaves inside the in-flight window so a
                # draining close() never cuts a connection mid-answer.
                core.begin_request()
                try:
                    for frame_payload in core.serve_frames(payload, owner):
                        send_payload(sock, frame_payload)
                finally:
                    core.end_request()
        except (ConnectionClosed, ProtocolError, OSError):
            # Torn-down, timed-out or misbehaving connection; per-connection
            # state is dropped below and the server keeps serving the rest.
            pass
        finally:
            core.connection_closed(owner)
            serving._unregister_connection(sock)


class RetrievalServer:
    """Serve one shared engine to many connections, with request coalescing.

    Parameters
    ----------
    engine:
        The engine to front — a
        :class:`~repro.database.engine.RetrievalEngine` or a
        :class:`~repro.database.sharding.ShardedEngine` (any backend).
    config:
        A :class:`ServerConfig`; defaults throughout.
    own_engine:
        When true, :meth:`close` also closes the engine — worker pools,
        worker processes and shared-memory segments are released as part of
        the server's own teardown (the deployment shape where the server is
        the engine's only user).
    """

    def __init__(self, engine, config: "ServerConfig | None" = None, *, own_engine: bool = False) -> None:
        self._core = ServingCore(engine, config)
        self._own_engine = bool(own_engine)
        self._tcp: "_TCPServer | None" = None
        self._acceptor: "threading.Thread | None" = None
        self._closed = False
        self._connection_lock = threading.Lock()
        self._open_sockets: "set" = set()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def engine(self):
        """The shared engine behind every connection."""
        return self._core.engine

    @property
    def config(self) -> ServerConfig:
        """The server configuration."""
        return self._core.config

    @property
    def feedback_engine(self) -> FeedbackEngine:
        """The feedback engine loops and sessions run under."""
        return self._core.feedback

    @property
    def bypass_registry(self) -> "BypassRegistry | None":
        """The shared served bypass (``None`` unless ``config.bypass``)."""
        return self._core.bypass

    @property
    def address(self) -> "tuple[str, int]":
        """The bound ``(host, port)`` — call :meth:`start` first."""
        if self._tcp is None:
            raise ValidationError("the server is not started")
        host, port = self._tcp.server_address[:2]
        return host, port

    def start(self) -> "tuple[str, int]":
        """Bind the port and start accepting connections (idempotent)."""
        if self._closed:
            raise ValidationError("the server is closed")
        if self._tcp is None:
            self._tcp = _TCPServer((self.config.host, self.config.port), self)
            self._acceptor = threading.Thread(
                target=self._tcp.serve_forever,
                kwargs={"poll_interval": 0.05},
                name="repro-serving-accept",
                daemon=True,
            )
            self._acceptor.start()
        return self.address

    def close(self) -> None:
        """Drain and stop the server deterministically (idempotent).

        Stops accepting, lets the shared frontier finish the loops already
        admitted or queued (new ones are refused), waits for in-flight
        responses to leave, then disconnects the remaining clients, drops
        their sessions, and — with ``own_engine=True`` — closes the engine,
        releasing worker pools, worker processes and shared-memory
        segments.
        """
        if self._closed:
            return
        self._closed = True
        if self._tcp is not None:
            self._tcp.shutdown()
            self._tcp.server_close()
        self._core.shutdown(own_engine=False)
        with self._connection_lock:
            lingering = list(self._open_sockets)
        for connection in lingering:
            try:
                connection.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        if self._acceptor is not None:
            self._acceptor.join(timeout=5.0)
        if self._own_engine:
            close = getattr(self._core.engine, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "RetrievalServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Connection bookkeeping
    # ------------------------------------------------------------------ #
    def _register_connection(self, sock) -> None:
        with self._connection_lock:
            self._open_sockets.add(sock)

    def _unregister_connection(self, sock) -> None:
        with self._connection_lock:
            self._open_sockets.discard(sock)

    def stats(self) -> dict:
        """One aggregated snapshot of every serving-layer counter."""
        return self._core.stats()

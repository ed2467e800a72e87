"""The serving client: the engine's query surface, over a socket.

:class:`ServingClient` speaks the length-prefixed frame protocol of
:mod:`repro.serving.protocol` to a
:class:`~repro.serving.server.RetrievalServer` or
:class:`~repro.serving.async_server.AsyncRetrievalServer` and mirrors the
engine contract method for method — ``search`` / ``search_batch`` /
parameterised search — plus interactive feedback
sessions: :meth:`run_feedback_session` keeps the judge local and drives the
loop round by round over the wire (open, judge, send judgments, repeat),
which is the real interactive-user shape.

Each connection opens with the codec handshake of
:mod:`repro.serving.codec`: the client offers ``binary.1``, the server
accepts or rejects, and every later frame is the binary codec.

A session's outcome is byte-identical to the local
:meth:`~repro.feedback.engine.FeedbackEngine.run_loop` — the serving
layer's contract, enforced by ``tests/test_serving_equivalence.py`` on
both front ends.
"""

from __future__ import annotations

import socket
import threading

import numpy as np

from repro.database.budget import Budget, Coverage
from repro.feedback.engine import FeedbackLoopResult, Judge
from repro.feedback.scores import JudgmentBatch
from repro.serving.codec import BINARY, CodecError, pack_hello, parse_reply
from repro.serving.protocol import QUERY_WIRE_KEYS, recv_payload, send_payload
from repro.utils.validation import ValidationError, as_float_matrix, as_float_vector

__all__ = ["ServingClient", "ServingError"]


class ServingError(RuntimeError):
    """A server-side failure, re-raised client-side with the server's message."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"{kind}: {message}")
        self.kind = kind


class ServingClient:
    """One connection to a serving front end (threaded or async).

    The client is thread-safe in the trivial way — one lock serialises the
    request/response exchange — but the serving layer's concurrency model
    is *one client per connection*: parallel callers should each open their
    own client so their requests can actually coalesce server-side instead
    of queueing on a shared socket.

    Parameters
    ----------
    host, port:
        The server's bound address.
    timeout:
        Socket timeout (seconds) applied to the whole connection — the
        handshake and every request/response exchange; ``None`` (default)
        blocks indefinitely.  Adjustable later via :meth:`set_timeout`
        (the hook :class:`~repro.serving.pool.PooledServingClient` uses to
        enforce per-request deadline budgets).
    """

    def __init__(self, host: str, port: int, *, timeout: "float | None" = None) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        # The conversation is many tiny frames; never wait for Nagle.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._lock = threading.Lock()
        self._closed = False
        try:
            send_payload(self._sock, pack_hello([BINARY.name]))
            accepted = parse_reply(recv_payload(self._sock))
            if accepted != BINARY.name:  # pragma: no cover - defensive
                raise CodecError(f"server accepted {accepted!r}, wanted {BINARY.name!r}")
        except BaseException:
            self.close()
            raise

    def set_timeout(self, timeout: "float | None") -> None:
        """Set the socket timeout for subsequent exchanges (``None`` blocks)."""
        self._sock.settimeout(timeout)

    def close(self) -> None:
        """Close the connection (idempotent); open sessions are dropped server-side."""
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already torn down
            pass

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _call(self, op: str, **payload):
        message = {"op": op, **payload}
        with self._lock:
            if self._closed:
                raise ValidationError("the serving client is closed")
            send_payload(self._sock, BINARY.encode(message))
            response = self._reassemble(BINARY.decode(recv_payload(self._sock)))
        if not isinstance(response, dict) or "ok" not in response:
            raise ServingError("protocol", f"malformed response {response!r}")
        if not response["ok"]:
            if response.get("error") == "validation":
                raise ValidationError(response.get("message", "validation failed"))
            raise ServingError(response.get("error", "error"), response.get("message", ""))
        return response["result"]

    def _reassemble(self, response):
        """Collect a chunk-streamed response back into one result list.

        Large list results arrive as a header frame announcing the chunk
        count followed by that many list sub-frames (see ``docs/serving.md``
        for the layout); anything else passes straight through.
        """
        if not isinstance(response, dict) or "chunked" not in response or not response.get("ok"):
            return response
        n_chunks = response["chunked"]
        items: list = []
        for _ in range(n_chunks):
            items.extend(BINARY.decode(recv_payload(self._sock)))
        total = response.get("total")
        if total is not None and total != len(items):
            raise ServingError(
                "protocol", f"chunked response announced {total} items, got {len(items)}"
            )
        return {"ok": True, "result": items}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def ping(self) -> str:
        """Round-trip liveness check."""
        return self._call("ping")

    def info(self) -> dict:
        """The server's engine description and serving configuration."""
        return self._call("info")

    def stats(self) -> dict:
        """The server's aggregated engine / coalescer / session counters."""
        return self._call("stats")

    # ------------------------------------------------------------------ #
    # The query contract
    # ------------------------------------------------------------------ #
    @staticmethod
    def _budget_spec(budget) -> "dict | None":
        """Normalise a budget argument into its wire dict (or ``None``).

        Accepts a :class:`~repro.database.budget.Budget` or a plain spec
        dict (``{"max_rows": ..., "deadline": ...}``).  The deadline is a
        duration: the server's allowance restarts when the request arrives.
        """
        if budget is None:
            return None
        if isinstance(budget, Budget):
            return budget.to_wire()
        if not isinstance(budget, dict):
            raise ValidationError("budget must be a Budget, a spec dict, or None")
        return budget

    def _query(self, op: str, k: int, *arrays, budget=None):
        """Build and send one k-NN query request (wire names from ``QUERY_WIRE_KEYS``).

        Arrays that are not numeric vectors (one-row ops) or matrices raise
        :class:`~repro.utils.validation.ValidationError` before anything is sent.
        """
        array_keys, result_key = QUERY_WIRE_KEYS[op]
        convert = as_float_vector if result_key == "result" else as_float_matrix
        message = {key: convert(array, name=key) for key, array in zip(array_keys, arrays)}
        message["k"] = int(k)
        spec = self._budget_spec(budget)
        if spec is None:
            return self._call(op, **message)
        payload = self._call(op, **message, budget=spec)
        return payload[result_key], Coverage.from_dict(payload["coverage"])

    def search(self, query_point, k: int, *, budget=None):
        """k-NN search of one query point (coalesced server-side).

        With a ``budget`` the request is anytime: the server answers with
        whatever the budget could afford and the call returns a
        ``(result, coverage)`` pair — the
        :class:`~repro.database.budget.Coverage` report says how much of
        the corpus was consulted.  Without one, just the result.
        """
        return self._query("search", k, query_point, budget=budget)

    def search_batch(self, query_points, k: int, *, budget=None):
        """k-NN search of a query matrix, one result list per row.

        With a ``budget``: returns ``(results, coverage)`` (see
        :meth:`search`); without one, just the result list.
        """
        return self._query("search_batch", k, query_points, budget=budget)

    def search_with_parameters(self, query_point, k: int, delta, weights, *, budget=None):
        """Parameterised search (``q + Δ``, weights ``W``) of one query.

        With a ``budget``: returns ``(result, coverage)`` (see :meth:`search`).
        """
        return self._query("search_with_parameters", k, query_point, delta, weights, budget=budget)

    def search_batch_with_parameters(self, query_points, k: int, deltas, weights, *, budget=None):
        """Batched parameterised search, one ``(Δ, W)`` row per query.

        With a ``budget``: returns ``(results, coverage)`` (see :meth:`search`).
        """
        return self._query(
            "search_batch_with_parameters", k, query_points, deltas, weights, budget=budget
        )

    # ------------------------------------------------------------------ #
    # The shared served bypass
    # ------------------------------------------------------------------ #
    def bypass_mopt(self, query_point, *, tenant: "str | None" = None):
        """Predict optimal parameters from the server's shared Simplex Tree.

        Returns the tenant's tree's
        :class:`~repro.core.oqp.OptimalQueryParameters` for ``query_point``
        — byte-identical to a local ``FeedbackBypass.mopt`` over the same
        ordered insert log.  Requires ``ServerConfig(bypass=True)``.
        """
        return self._call(
            "bypass_mopt",
            query_point=np.asarray(query_point, dtype=np.float64),
            tenant=tenant,
        )

    def bypass_insert(self, query_point, parameters, *, tenant: "str | None" = None):
        """Train the shared tree with one converged loop's parameters.

        ``parameters`` is an
        :class:`~repro.core.oqp.OptimalQueryParameters`; the server returns
        the tree's :class:`~repro.core.simplex_tree.InsertOutcome`
        (``"capped"`` when the tree hit its node cap).
        """
        return self._call(
            "bypass_insert",
            query_point=np.asarray(query_point, dtype=np.float64),
            parameters=parameters,
            tenant=tenant,
        )

    def bypass_stats(self, *, tenant: "str | None" = None) -> dict:
        """Registry-wide stats, or one tenant's tree stats when given."""
        return self._call("bypass_stats", tenant=tenant)

    # ------------------------------------------------------------------ #
    # Live-corpus mutation (requires a server over a LiveCollection)
    # ------------------------------------------------------------------ #
    def insert(self, vectors, labels=None) -> np.ndarray:
        """Append vectors to the served live corpus; returns their stable ids.

        The vectors travel as one float64 matrix frame on the binary codec;
        queries dispatched after the response sees them.  Raises a server
        error when the served corpus is frozen.
        """
        return self._call(
            "insert",
            vectors=np.asarray(vectors, dtype=np.float64),
            labels=None if labels is None else [str(label) for label in labels],
        )

    def delete(self, ids) -> int:
        """Tombstone stable ids in the served live corpus; returns the count."""
        return int(self._call("delete", ids=np.asarray(ids, dtype=np.int64)))

    def compact(self) -> dict:
        """Fold the served corpus's deltas into a fresh base segment.

        Queries keep dispatching while the fold runs (its heavy phase holds
        no lock the query path needs); the response carries the composition
        stats after the fold.
        """
        return self._call("compact")

    def corpus_stats(self) -> dict:
        """Segment/tombstone/compaction counters of the served corpus.

        Answers on frozen corpora too (``live: False`` + size), so clients
        can probe mutability without an error round-trip.
        """
        return self._call("corpus_stats")

    # ------------------------------------------------------------------ #
    # Interactive multi-round sessions
    # ------------------------------------------------------------------ #
    def open_session(self, query_point, k: int, *, initial_delta=None, initial_weights=None) -> dict:
        """Open an interactive session; returns ``session_id`` and first results."""
        return self._call(
            "session_open",
            query_point=np.asarray(query_point, dtype=np.float64),
            k=int(k),
            initial_delta=None if initial_delta is None else np.asarray(initial_delta, dtype=np.float64),
            initial_weights=None
            if initial_weights is None
            else np.asarray(initial_weights, dtype=np.float64),
        )

    def session_feedback(self, session_id: int, indices, scores) -> dict:
        """Send one round of relevance judgments; returns the round payload."""
        return self._call(
            "session_feedback",
            session_id=int(session_id),
            indices=np.asarray(indices, dtype=np.intp),
            scores=np.asarray(scores, dtype=np.float64),
        )

    def close_session(self, session_id: int) -> FeedbackLoopResult:
        """Close a session and collect its loop outcome."""
        return self._call("session_close", session_id=int(session_id))

    def run_feedback_session(
        self, query_point, k: int, judge: Judge, *, initial_delta=None, initial_weights=None
    ) -> FeedbackLoopResult:
        """Drive an interactive session with a *local* judge, round by round.

        The judge never leaves this process — each round the client judges
        the current results and ships only ``(indices, scores)``.  The server
        advances the same :class:`~repro.feedback.engine.LoopCursor` as
        :meth:`~repro.feedback.engine.FeedbackEngine.run_loop`, so the returned
        :class:`~repro.feedback.engine.FeedbackLoopResult` is byte-identical
        to the local sequential loop with the same judge.
        """
        opened = self.open_session(
            query_point, k, initial_delta=initial_delta, initial_weights=initial_weights
        )
        session_id = opened["session_id"]
        results = opened["results"]
        done = opened["done"]
        while not done:
            judgments = JudgmentBatch.from_judgments(judge(results))
            reply = self.session_feedback(session_id, judgments.indices, judgments.scores)
            if reply["results"] is not None:
                results = reply["results"]
            done = reply["done"]
        return self.close_session(session_id)

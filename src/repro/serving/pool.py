"""The pooled serving client: bounded connections, budgets, retries.

:class:`PooledServingClient` fronts a serving address (threaded or async
front end alike) with a bounded pool of
:class:`~repro.serving.client.ServingClient` connections and wraps every
call in the reliability loop a real deployment needs:

- **bounded pool** — at most ``max_connections`` sockets ever exist;
  callers beyond that wait for a checkout instead of dialling more.
  Connections are reused LIFO (the most recently returned socket is the
  most likely to still be warm in every cache along the path).
- **health-aware checkout** — a pooled connection that has sat idle past
  ``health_check_interval`` is pinged before reuse; a dead one is
  discarded and replaced by a fresh dial, so a server restart never
  surfaces as a caller-visible error burst.
- **per-request timeout budget** — ``request_timeout`` is a deadline for
  the *whole* call: every attempt's socket timeout is the remaining
  budget, and backoff sleeps draw from the same budget, so a call takes
  at most ``request_timeout`` seconds end to end, retries included.
- **bounded exponential-backoff retry** — *idempotent* ops (the query
  contract and introspection: pure functions of the request) are retried
  up to ``retries`` times on **transport** failures (connection refused /
  reset / timed out / torn frames) with exponential backoff; semantic
  failures (:class:`~repro.utils.validation.ValidationError`, server-side
  errors) propagate immediately — retrying can't fix a bad request.  Stateful
  session ops never auto-retry; :meth:`lease` pins one connection for the
  round-by-round interactive shape.

The pool is thread-safe: concurrent callers check out distinct
connections (up to the bound), so their requests can coalesce server-side
exactly as independent clients' would.
"""

from __future__ import annotations

import threading
import time

from repro.database.query import ResultSet
from repro.feedback.engine import FeedbackLoopResult, Judge
from repro.serving.client import ServingClient, ServingError
from repro.serving.protocol import ConnectionClosed, ProtocolError
from repro.utils.validation import ValidationError, check_dimension

__all__ = ["PooledServingClient", "PoolTimeout"]

#: Failures that mean "the transport broke", not "the request was wrong" —
#: the only failures a retry can fix.
_TRANSPORT_ERRORS = (OSError, ConnectionClosed, ProtocolError, TimeoutError)


class PoolTimeout(ServingError):
    """A request (or checkout) exhausted its deadline budget."""

    def __init__(self, message: str) -> None:
        super().__init__("timeout", message)


class _PooledConnection:
    """One pooled socket and the bookkeeping health checks need."""

    __slots__ = ("client", "returned_at")

    def __init__(self, client: ServingClient) -> None:
        self.client = client
        self.returned_at = time.monotonic()


class PooledServingClient:
    """A bounded, self-healing client pool over one serving address.

    Parameters
    ----------
    host, port:
        The serving front end's bound address.
    max_connections:
        Upper bound on concurrently existing sockets.  Callers beyond it
        wait for a checkout (within their deadline budget).
    request_timeout:
        Deadline (seconds) for one logical call, attempts + backoff
        included; ``None`` waits forever.
    retries:
        Extra attempts after the first for idempotent ops on transport
        failure (``0`` disables retry).
    backoff, backoff_cap:
        Exponential backoff: attempt ``i`` sleeps
        ``min(backoff * 2**i, backoff_cap)`` seconds before retrying.
    health_check_interval:
        A pooled connection idle longer than this is pinged before reuse
        (``None`` trusts pooled connections unconditionally).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        max_connections: int = 8,
        request_timeout: "float | None" = None,
        retries: int = 2,
        backoff: float = 0.05,
        backoff_cap: float = 1.0,
        health_check_interval: "float | None" = 30.0,
    ) -> None:
        check_dimension(max_connections, "max_connections")
        if retries < 0:
            raise ValidationError("retries must be non-negative")
        if backoff < 0 or backoff_cap < 0:
            raise ValidationError("backoff and backoff_cap must be non-negative")
        if request_timeout is not None and request_timeout <= 0:
            raise ValidationError("request_timeout must be positive (or None)")
        if health_check_interval is not None and health_check_interval < 0:
            raise ValidationError("health_check_interval must be non-negative (or None)")
        self._host = host
        self._port = port
        self._max_connections = max_connections
        self._request_timeout = request_timeout
        self._retries = retries
        self._backoff = backoff
        self._backoff_cap = backoff_cap
        self._health_check_interval = health_check_interval
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._idle: "list[_PooledConnection]" = []  # LIFO
        self._n_alive = 0  # idle + checked out
        self._closed = False
        # Reliability counters (under the lock).
        self._n_dials = 0
        self._n_reuses = 0
        self._n_health_checks = 0
        self._n_evictions = 0
        self._n_retries = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Close every pooled connection (idempotent).

        Checked-out connections are closed when returned; blocked
        checkouts fail immediately.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            idle, self._idle = self._idle, []
            self._n_alive -= len(idle)
            self._available.notify_all()
        for entry in idle:
            entry.client.close()

    def __enter__(self) -> "PooledServingClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> dict:
        """Pool counters: dials, reuses, health checks, evictions, retries."""
        with self._lock:
            return {
                "alive": self._n_alive,
                "idle": len(self._idle),
                "dials": self._n_dials,
                "reuses": self._n_reuses,
                "health_checks": self._n_health_checks,
                "evictions": self._n_evictions,
                "retries": self._n_retries,
            }

    # ------------------------------------------------------------------ #
    # Checkout / return
    # ------------------------------------------------------------------ #
    def _deadline(self) -> "float | None":
        if self._request_timeout is None:
            return None
        return time.monotonic() + self._request_timeout

    @staticmethod
    def _remaining(deadline: "float | None") -> "float | None":
        if deadline is None:
            return None
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise PoolTimeout("request deadline budget exhausted")
        return remaining

    def _dial(self, deadline: "float | None") -> ServingClient:
        remaining = self._remaining(deadline)
        client = ServingClient(self._host, self._port, timeout=remaining)
        with self._lock:
            self._n_dials += 1
        return client

    def _checkout(self, deadline: "float | None") -> ServingClient:
        """Take a healthy connection from the pool, dialling if needed."""
        while True:
            with self._available:
                if self._closed:
                    raise ValidationError("the pooled serving client is closed")
                if self._idle:
                    entry = self._idle.pop()  # LIFO: warmest first
                    self._n_reuses += 1
                    idle_for = time.monotonic() - entry.returned_at
                    needs_ping = (
                        self._health_check_interval is not None
                        and idle_for > self._health_check_interval
                    )
                elif self._n_alive < self._max_connections:
                    self._n_alive += 1  # reserve the slot before dialling
                    entry = None
                    needs_ping = False
                else:
                    remaining = self._remaining(deadline)
                    if not self._available.wait(timeout=remaining):
                        raise PoolTimeout("timed out waiting for a pooled connection")
                    continue
            if entry is None:
                try:
                    return self._dial(deadline)
                except BaseException:
                    with self._available:
                        self._n_alive -= 1
                        self._available.notify()
                    raise
            if needs_ping:
                with self._lock:
                    self._n_health_checks += 1
                try:
                    entry.client.set_timeout(self._remaining(deadline))
                    entry.client.ping()
                except _TRANSPORT_ERRORS + (ServingError,):
                    self._discard(entry.client)
                    continue  # replaced by the next loop iteration
            return entry.client

    def _give_back(self, client: ServingClient) -> None:
        with self._available:
            if self._closed:
                self._n_alive -= 1
                self._available.notify()
            else:
                self._idle.append(_PooledConnection(client))
                self._available.notify()
                return
        client.close()

    def _discard(self, client: ServingClient) -> None:
        client.close()
        with self._available:
            self._n_alive -= 1
            self._n_evictions += 1
            self._available.notify()

    def lease(self):
        """Context manager pinning one pooled connection to the caller.

        For conversations that must stay on one socket — interactive
        sessions, or a sequence of calls that should queue behind each
        other.  The connection returns to the pool healthy, or is
        discarded if the body raised a transport error.
        """
        return _Lease(self)

    # ------------------------------------------------------------------ #
    # The reliability loop
    # ------------------------------------------------------------------ #
    def _call(self, method: str, *args, idempotent: bool, **kwargs):
        deadline = self._deadline()
        attempts = (1 + self._retries) if idempotent else 1
        last_error: "BaseException | None" = None
        for attempt in range(attempts):
            if attempt:
                pause = min(self._backoff * (2 ** (attempt - 1)), self._backoff_cap)
                remaining = self._remaining(deadline)
                if remaining is not None:
                    pause = min(pause, remaining)
                time.sleep(pause)
                with self._lock:
                    self._n_retries += 1
            try:
                client = self._checkout(deadline)
            except PoolTimeout:
                raise
            except _TRANSPORT_ERRORS as error:
                last_error = error  # dial failed; backoff and retry
                continue
            try:
                client.set_timeout(self._remaining(deadline))
                result = getattr(client, method)(*args, **kwargs)
            except PoolTimeout:
                self._discard(client)
                raise
            except _TRANSPORT_ERRORS as error:
                # The connection is in an unknown mid-conversation state —
                # never return it to the pool.
                self._discard(client)
                last_error = error
                continue
            except BaseException:
                # Semantic failure: the exchange completed, the connection
                # is fine — reuse it, propagate the error unretried.
                self._give_back(client)
                raise
            self._give_back(client)
            return result
        if isinstance(last_error, TimeoutError):
            raise PoolTimeout(f"{method} exhausted its deadline budget") from last_error
        raise ServingError(
            "transport", f"{method} failed after {attempts} attempt(s): {last_error}"
        ) from last_error

    # ------------------------------------------------------------------ #
    # Introspection (idempotent)
    # ------------------------------------------------------------------ #
    def ping(self) -> str:
        """Round-trip liveness check."""
        return self._call("ping", idempotent=True)

    def info(self) -> dict:
        """The server's engine description and serving configuration."""
        return self._call("info", idempotent=True)

    # ------------------------------------------------------------------ #
    # The query contract (idempotent — pure functions of the request)
    # ------------------------------------------------------------------ #
    def search(self, query_point, k: int, *, budget=None) -> ResultSet:
        """k-NN search of one query point (coalesced server-side).

        With ``budget`` set the server answers anytime-style and the call
        returns ``(result, coverage)`` — see :meth:`ServingClient.search`.
        """
        return self._call("search", query_point, k, idempotent=True, budget=budget)

    def search_batch(self, query_points, k: int, *, budget=None) -> "list[ResultSet]":
        """k-NN search of a query matrix, one result list per row."""
        return self._call("search_batch", query_points, k, idempotent=True, budget=budget)

    def search_with_parameters(
        self, query_point, k: int, delta, weights, *, budget=None
    ) -> ResultSet:
        """Parameterised search (``q + Δ``, weights ``W``) of one query."""
        return self._call(
            "search_with_parameters", query_point, k, delta, weights, idempotent=True, budget=budget
        )

    def search_batch_with_parameters(
        self, query_points, k: int, deltas, weights, *, budget=None
    ) -> "list[ResultSet]":
        """Batched parameterised search, one ``(Δ, W)`` row per query."""
        return self._call(
            "search_batch_with_parameters",
            query_points,
            k,
            deltas,
            weights,
            idempotent=True,
            budget=budget,
        )

    # ------------------------------------------------------------------ #
    # The shared served bypass
    # ------------------------------------------------------------------ #
    def bypass_mopt(self, query_point, *, tenant: "str | None" = None):
        """Predict from the shared tree (idempotent — retried)."""
        return self._call("bypass_mopt", query_point, idempotent=True, tenant=tenant)

    def bypass_insert(self, query_point, parameters, *, tenant: "str | None" = None):
        """Train the shared tree (not retried: a lost ack must not double-count)."""
        return self._call(
            "bypass_insert", query_point, parameters, idempotent=False, tenant=tenant
        )

    def bypass_stats(self, *, tenant: "str | None" = None) -> dict:
        """Shared-tree statistics (idempotent — retried)."""
        return self._call("bypass_stats", idempotent=True, tenant=tenant)

    def insert(self, vectors, labels=None):
        """Append vectors to the served live corpus (not retried: a lost ack
        must not insert the rows twice under fresh ids)."""
        return self._call("insert", vectors, labels, idempotent=False)

    def delete(self, ids) -> int:
        """Tombstone stable ids (not retried: deleting a dead id raises, so
        a replay of a half-acknowledged delete would surface as an error)."""
        return self._call("delete", ids, idempotent=False)

    def compact(self) -> dict:
        """Fold the served corpus (idempotent — a repeated fold is a no-op)."""
        return self._call("compact", idempotent=True)

    def corpus_stats(self) -> dict:
        """Segment/tombstone/compaction counters (idempotent — retried)."""
        return self._call("corpus_stats", idempotent=True)

    def run_feedback_session(
        self, query_point, k: int, judge: Judge, *, initial_delta=None, initial_weights=None
    ) -> FeedbackLoopResult:
        """Interactive session with a local judge, pinned to one connection.

        Stateful — the server holds the session between rounds — so no
        automatic retry: a transport failure mid-session surfaces to the
        caller (the session itself is dropped server-side on disconnect).
        """
        with self.lease() as client:
            client.set_timeout(self._request_timeout)
            return client.run_feedback_session(
                query_point, k, judge, initial_delta=initial_delta, initial_weights=initial_weights
            )


class _Lease:
    """Checkout guard returned by :meth:`PooledServingClient.lease`."""

    def __init__(self, pool: PooledServingClient) -> None:
        self._pool = pool
        self._client: "ServingClient | None" = None

    def __enter__(self) -> ServingClient:
        self._client = self._pool._checkout(self._pool._deadline())
        return self._client

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        client = self._client
        self._client = None
        if client is None:  # pragma: no cover - defensive
            return
        if exc_type is not None and issubclass(exc_type, _TRANSPORT_ERRORS):
            self._pool._discard(client)
        else:
            try:
                client.set_timeout(None)
            except OSError:
                self._pool._discard(client)
                return
            self._pool._give_back(client)

"""The shared served bypass: one multi-tenant Simplex Tree per collection.

The paper's economy is amortizing relevance-feedback loops *across users*:
every converged loop deposits its optimal parameters in the Simplex Tree so
later queries start near their optimum.  Before this module the trained
:class:`~repro.core.bypass.FeedbackBypass` lived with the caller — the server
ran loops and threw the learning away.  :class:`BypassRegistry` makes the
tree a shared serving resource:

* **one tree per (tenant, collection, distance-family)** — the registry is
  constructed per engine (collection + distance family) and lazily opens one
  :class:`FeedbackBypass` per tenant namespace;
* **lock-disciplined concurrency** — reads (``mopt``) run under a
  read-favoring reader/writer discipline so predictions never queue behind
  each other, while ``insert`` serializes per tree and appends to an
  ordered insert log;
* **warm-start persistence** — with a ``snapshot_dir`` every applied insert
  is appended to a per-tenant write-ahead insert log, periodic / on-close /
  on-evict snapshots persist the whole tree via
  :mod:`repro.core.persistence` with a crash-safe atomic rename, and boot
  loads the snapshot then replays the log, reconstructing the tree
  bit-identically (a torn tail record from a crash mid-append is dropped);
* **size/eviction policy** — ``max_nodes`` caps stored points per tree
  (further inserts return a ``"capped"`` outcome instead of growing the
  tree) and ``max_tenants`` bounds resident trees, evicting the
  least-recently-*trained* tenant (snapshotting it first when persistent).

Concurrency notes.  Tree *structure* is only mutated under the write lock.
Concurrent readers may undercount the tree's internal statistics counters
(they are plain Python ints); the registry therefore keeps its own exact
counters updated under locks — stress tests assert on those.  Lock order is
always tenant-entry lock before (never after) the registry lock.
"""

from __future__ import annotations

import itertools
import os
import struct
import threading
from contextlib import contextmanager

import numpy as np

from repro.core.bypass import FeedbackBypass
from repro.core.oqp import OptimalQueryParameters
from repro.core.persistence import load_simplex_tree, save_simplex_tree
from repro.core.simplex_tree import InsertOutcome
from repro.geometry.bounding import bounding_simplex_for_points
from repro.utils.validation import (
    ValidationError,
    as_float_matrix,
    as_float_vector,
    check_dimension,
)

__all__ = ["BypassRegistry", "DEFAULT_TENANT"]

DEFAULT_TENANT = "public"

_NAME_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)

_LOG_MAGIC = b"BPL1"
# Insert-log header: magic, query dimension D, weight dimension P.  Records
# are fixed-size little-endian float64 rows: point (D) + delta (D) + weights
# (P), so replay needs no framing and a torn tail is detectable by length.
_LOG_HEADER = struct.Struct(">4sHH")


def _checked_name(name, what: str) -> str:
    if not isinstance(name, str) or not name:
        raise ValidationError(f"{what} must be a non-empty string")
    if len(name) > 64 or not set(name) <= _NAME_CHARS:
        raise ValidationError(
            f"{what} may use up to 64 characters from [A-Za-z0-9._-], got {name!r}"
        )
    return name


class _ReadFavoringLock:
    """Reader/writer lock where arriving readers overtake waiting writers.

    ``mopt`` traffic vastly outnumbers inserts, so readers proceed whenever
    no writer is *active* (even if one is waiting); a writer runs only when
    no reader and no other writer holds the lock.
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._n_readers = 0
        self._writing = False

    @contextmanager
    def read(self):
        with self._condition:
            while self._writing:
                self._condition.wait()
            self._n_readers += 1
        try:
            yield
        finally:
            with self._condition:
                self._n_readers -= 1
                if self._n_readers == 0:
                    self._condition.notify_all()

    @contextmanager
    def write(self):
        with self._condition:
            while self._writing or self._n_readers:
                self._condition.wait()
            self._writing = True
        try:
            yield
        finally:
            with self._condition:
                self._writing = False
                self._condition.notify_all()


class _TenantTree:
    """One tenant's tree plus its lock, ordered insert log and counters."""

    __slots__ = (
        "tenant",
        "bypass",
        "lock",
        "log",
        "wal",
        "n_requests",
        "n_applied",
        "n_capped",
        "n_replayed",
        "since_snapshot",
        "train_stamp",
    )

    def __init__(self, tenant: str, bypass: FeedbackBypass) -> None:
        self.tenant = tenant
        self.bypass = bypass
        self.lock = _ReadFavoringLock()
        self.log: list = []
        self.wal = None
        self.n_requests = 0
        self.n_applied = 0
        self.n_capped = 0
        self.n_replayed = 0
        self.since_snapshot = 0
        self.train_stamp = 0


class BypassRegistry:
    """Shared, persistent, multi-tenant :class:`FeedbackBypass` trees.

    Parameters
    ----------
    root_vertices:
        ``(D+1, D)`` root simplex enclosing the query domain; every tenant's
        tree shares it (and therefore the dimensions and default value).
    weight_dimension:
        Weight vector length ``P`` (defaults to ``D``).
    epsilon:
        The tree's insert ε-gate (see :class:`SimplexTree`).
    family:
        Distance-family label — part of on-disk file names, so one
        ``snapshot_dir`` can host several registries.
    snapshot_dir:
        Directory for snapshots and insert logs; ``None`` disables
        persistence entirely.
    snapshot_every:
        Snapshot a tenant's tree after this many applied inserts since the
        last snapshot (``0`` = only on close/evict).
    max_nodes:
        Cap on stored points per tree; further inserts return a
        ``"capped"`` outcome.
    max_tenants:
        Cap on resident trees; exceeding it evicts the least-recently-trained
        tenant (snapshot first when persistent).
    """

    def __init__(
        self,
        root_vertices,
        *,
        weight_dimension: int | None = None,
        epsilon: float = 0.0,
        family: str = "default",
        snapshot_dir=None,
        snapshot_every: int = 256,
        max_nodes: int | None = None,
        max_tenants: int = 64,
    ) -> None:
        vertices = as_float_matrix(root_vertices, name="root_vertices")
        if vertices.shape[0] != vertices.shape[1] + 1:
            raise ValidationError(
                f"root_vertices must be a (D+1, D) matrix, got {vertices.shape}"
            )
        self._root_vertices = vertices.copy()
        self._root_vertices.setflags(write=False)
        self._query_dimension = int(vertices.shape[1])
        if weight_dimension is None:
            weight_dimension = self._query_dimension
        self._weight_dimension = check_dimension(weight_dimension, "weight_dimension")
        if epsilon < 0:
            raise ValidationError(f"epsilon must be non-negative, got {epsilon}")
        self._epsilon = float(epsilon)
        self._family = _checked_name(family, "family")
        self._snapshot_dir = None if snapshot_dir is None else os.fspath(snapshot_dir)
        if int(snapshot_every) < 0:
            raise ValidationError("snapshot_every must be non-negative")
        self._snapshot_every = int(snapshot_every)
        self._max_nodes = (
            None if max_nodes is None else check_dimension(max_nodes, "max_nodes")
        )
        self._max_tenants = check_dimension(max_tenants, "max_tenants")
        self._lock = threading.Lock()
        self._trees: dict[str, _TenantTree] = {}
        self._clock = itertools.count(1)
        self._closed = False
        self._n_predictions = 0
        self._n_snapshots = 0
        self._n_evictions = 0
        if self._snapshot_dir is not None:
            os.makedirs(self._snapshot_dir, exist_ok=True)

    # ------------------------------------------------------------- creation

    @classmethod
    def for_engine(cls, engine, *, margin: float = 0.25, **kwargs) -> "BypassRegistry":
        """Build a registry whose root simplex bounds ``engine``'s corpus.

        The distance family defaults to the engine's default distance class
        name, so trees (and their on-disk files) are keyed per
        (collection, distance-family) as the paper's economy requires.
        """
        vertices = bounding_simplex_for_points(
            engine.collection.vectors, margin=margin
        )
        kwargs.setdefault("family", engine.describe().get("default_distance", "default"))
        return cls(vertices, **kwargs)

    def local_reference(self) -> FeedbackBypass:
        """A fresh local bypass with this registry's exact geometry.

        Replaying a tenant's ordered :meth:`insert_log` into it reproduces
        the served tree bit for bit — the equivalence tests' oracle.
        """
        return FeedbackBypass(
            np.array(self._root_vertices),
            self._query_dimension,
            weight_dimension=self._weight_dimension,
            epsilon=self._epsilon,
        )

    # ----------------------------------------------------------- properties

    @property
    def root_vertices(self) -> np.ndarray:
        return self._root_vertices

    @property
    def query_dimension(self) -> int:
        return self._query_dimension

    @property
    def weight_dimension(self) -> int:
        return self._weight_dimension

    @property
    def epsilon(self) -> float:
        return self._epsilon

    @property
    def family(self) -> str:
        return self._family

    @property
    def persistent(self) -> bool:
        return self._snapshot_dir is not None

    def tenants(self) -> list[str]:
        """Resident tenant names (insertion order)."""
        with self._lock:
            return list(self._trees)

    # ------------------------------------------------------------ tenancy

    def _entry(self, tenant, *, create: bool = True):
        tenant = DEFAULT_TENANT if tenant is None else _checked_name(tenant, "tenant")
        evicted = None
        with self._lock:
            entry = self._trees.get(tenant)
            if entry is None:
                if not create:
                    return None
                if self._closed:
                    raise ValidationError("the bypass registry is closed")
                entry = self._warm_start(tenant)
                self._trees[tenant] = entry
                if len(self._trees) > self._max_tenants:
                    victim = min(
                        (name for name in self._trees if name != tenant),
                        key=lambda name: self._trees[name].train_stamp,
                    )
                    evicted = self._trees.pop(victim)
                    self._n_evictions += 1
        if evicted is not None:
            # Snapshot outside the registry lock: entry lock may never be
            # taken while holding the registry lock.
            with evicted.lock.write():
                self._snapshot_locked(evicted)
                if evicted.wal is not None:
                    evicted.wal.close()
                    evicted.wal = None
        return entry

    def _warm_start(self, tenant: str) -> _TenantTree:
        entry = _TenantTree(tenant, self.local_reference())
        if self._snapshot_dir is None:
            return entry
        path = self._snapshot_path(tenant)
        if os.path.exists(path):
            tree = load_simplex_tree(path)
            bypass = FeedbackBypass.from_tree(tree, self._query_dimension)
            if bypass.weight_dimension != self._weight_dimension:
                raise ValidationError(
                    f"snapshot {path!r} has weight dimension "
                    f"{bypass.weight_dimension}, registry expects "
                    f"{self._weight_dimension}"
                )
            entry.bypass = bypass
        entry.n_replayed = self._replay_wal(entry)
        entry.wal = self._open_wal(tenant)
        return entry

    # -------------------------------------------------------------- serving

    def _require_open(self) -> None:
        if self._closed:
            raise ValidationError("the bypass registry is closed")

    def mopt(self, tenant, query_point) -> OptimalQueryParameters:
        """Predict optimal parameters for ``query_point`` (read-locked)."""
        self._require_open()
        entry = self._entry(tenant)
        with entry.lock.read():
            prediction = entry.bypass.mopt(query_point)
        with self._lock:
            self._n_predictions += 1
        return prediction

    def insert(self, tenant, query_point, parameters) -> InsertOutcome:
        """Train ``tenant``'s tree with one converged loop (write-locked)."""
        self._require_open()
        entry = self._entry(tenant)
        query_point = as_float_vector(
            query_point, name="query_point", dim=self._query_dimension
        )
        self._check_parameters(parameters)
        with entry.lock.write():
            return self._insert_locked(entry, query_point, parameters)

    def _check_parameters(self, parameters) -> None:
        if not isinstance(parameters, OptimalQueryParameters):
            raise ValidationError(
                "parameters must be an OptimalQueryParameters instance, got "
                f"{type(parameters).__name__}"
            )
        if (
            parameters.query_dimension != self._query_dimension
            or parameters.weight_dimension != self._weight_dimension
        ):
            raise ValidationError(
                f"parameters have dimensions (D={parameters.query_dimension}, "
                f"P={parameters.weight_dimension}); this registry serves "
                f"(D={self._query_dimension}, P={self._weight_dimension})"
            )

    def _insert_locked(self, entry, query_point, parameters) -> InsertOutcome:
        entry.n_requests += 1
        if (
            self._max_nodes is not None
            and entry.bypass.n_stored_queries >= self._max_nodes
        ):
            entry.n_capped += 1
            return InsertOutcome(action="capped", prediction_error=0.0)
        outcome = entry.bypass.insert(query_point, parameters)
        if outcome.stored:
            entry.n_applied += 1
        # Every non-capped attempt is logged (ε-skips included): replaying
        # the log through a fresh FeedbackBypass re-applies the same gate
        # decisions, so the reconstruction is bit-identical.
        entry.log.append((query_point.copy(), parameters))
        self._append_wal(entry, query_point, parameters)
        entry.train_stamp = next(self._clock)
        entry.since_snapshot += 1
        if self._snapshot_every and entry.since_snapshot >= self._snapshot_every:
            self._snapshot_locked(entry)
        return outcome

    def insert_log(self, tenant) -> list:
        """The tenant's ordered ``(query_point, parameters)`` insert log.

        Covers every attempt applied since this process instantiated the
        tree, including write-ahead-log replays at warm start (capped
        attempts are excluded — they did not touch the tree).
        """
        entry = self._entry(tenant, create=False)
        if entry is None:
            return []
        with entry.lock.read():
            return [(point.copy(), parameters) for point, parameters in entry.log]

    # ---------------------------------------------------------- statistics

    def stats(self, tenant=None) -> dict:
        """Registry-wide stats, or one tenant's stats when ``tenant`` given."""
        if tenant is not None:
            return self._tenant_stats(self._entry(tenant))
        with self._lock:
            entries = list(self._trees.values())
            payload = {
                "family": self._family,
                "query_dimension": self._query_dimension,
                "weight_dimension": self._weight_dimension,
                "epsilon": self._epsilon,
                "max_nodes": self._max_nodes,
                "max_tenants": self._max_tenants,
                "persistent": self._snapshot_dir is not None,
                "n_tenants": len(entries),
                "n_predictions": self._n_predictions,
                "n_snapshots": self._n_snapshots,
                "n_evictions": self._n_evictions,
            }
        payload["tenants"] = {
            entry.tenant: self._tenant_stats(entry) for entry in entries
        }
        return payload

    def _tenant_stats(self, entry: _TenantTree) -> dict:
        with entry.lock.read():
            payload = {
                "tenant": entry.tenant,
                "n_insert_requests": entry.n_requests,
                "n_applied": entry.n_applied,
                "n_capped": entry.n_capped,
                "n_replayed": entry.n_replayed,
                "log_length": len(entry.log),
                "train_stamp": entry.train_stamp,
            }
            payload.update(entry.bypass.statistics())
        return payload

    # --------------------------------------------------------- persistence

    def _snapshot_path(self, tenant: str) -> str:
        return os.path.join(self._snapshot_dir, f"{self._family}--{tenant}.npz")

    def _wal_path(self, tenant: str) -> str:
        return os.path.join(self._snapshot_dir, f"{self._family}--{tenant}.log")

    def _record_bytes(self) -> int:
        return 8 * (2 * self._query_dimension + self._weight_dimension)

    def _open_wal(self, tenant: str):
        path = self._wal_path(tenant)
        size = os.path.getsize(path) if os.path.exists(path) else 0
        if size < _LOG_HEADER.size:
            handle = open(path, "wb")
            handle.write(
                _LOG_HEADER.pack(
                    _LOG_MAGIC, self._query_dimension, self._weight_dimension
                )
            )
            handle.flush()
            return handle
        return open(path, "ab")

    def _append_wal(self, entry: _TenantTree, query_point, parameters) -> None:
        if entry.wal is None:
            return
        entry.wal.write(
            query_point.astype("<f8").tobytes()
            + parameters.delta.astype("<f8").tobytes()
            + parameters.weights.astype("<f8").tobytes()
        )
        entry.wal.flush()

    def _replay_wal(self, entry: _TenantTree) -> int:
        path = self._wal_path(entry.tenant)
        if not os.path.exists(path):
            return 0
        with open(path, "rb") as handle:
            data = handle.read()
        if len(data) < _LOG_HEADER.size:
            return 0
        magic, dim, weight_dim = _LOG_HEADER.unpack_from(data)
        if (
            magic != _LOG_MAGIC
            or dim != self._query_dimension
            or weight_dim != self._weight_dimension
        ):
            raise ValidationError(
                f"insert log {path!r} does not match this registry's dimensions"
            )
        dimension = self._query_dimension
        weight_dimension = self._weight_dimension
        record = self._record_bytes()
        body = memoryview(data)[_LOG_HEADER.size :]
        replayed = 0
        # A torn tail record (crash mid-append) simply falls off the end.
        for index in range(len(body) // record):
            row = np.frombuffer(
                body,
                dtype="<f8",
                count=2 * dimension + weight_dimension,
                offset=index * record,
            ).astype(np.float64)
            parameters = OptimalQueryParameters(
                delta=row[dimension : 2 * dimension].copy(),
                weights=np.clip(row[2 * dimension :], 0.0, None),
            )
            point = row[:dimension].copy()
            try:
                entry.bypass.insert(point, parameters)
            except ValidationError:
                continue
            entry.log.append((point, parameters))
            replayed += 1
        return replayed

    def _snapshot_locked(self, entry: _TenantTree) -> None:
        """Snapshot + truncate the insert log (entry write lock held)."""
        entry.since_snapshot = 0
        if self._snapshot_dir is None:
            return
        path = self._snapshot_path(entry.tenant)
        temp = path + ".tmp.npz"
        save_simplex_tree(entry.bypass.tree, temp)
        os.replace(temp, path)
        if entry.wal is not None:
            entry.wal.close()
            entry.wal = None
        wal_temp = self._wal_path(entry.tenant) + ".tmp"
        with open(wal_temp, "wb") as handle:
            handle.write(
                _LOG_HEADER.pack(
                    _LOG_MAGIC, self._query_dimension, self._weight_dimension
                )
            )
        os.replace(wal_temp, self._wal_path(entry.tenant))
        entry.wal = self._open_wal(entry.tenant)
        with self._lock:
            self._n_snapshots += 1

    def snapshot(self, tenant=None) -> None:
        """Persist one tenant's tree (or every resident tree) right now."""
        if tenant is not None:
            entry = self._entry(tenant, create=False)
            if entry is not None:
                with entry.lock.write():
                    self._snapshot_locked(entry)
            return
        with self._lock:
            entries = list(self._trees.values())
        for entry in entries:
            with entry.lock.write():
                self._snapshot_locked(entry)

    def close(self) -> None:
        """Final snapshot of every tree; further serving calls are refused."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            entries = list(self._trees.values())
        for entry in entries:
            with entry.lock.write():
                self._snapshot_locked(entry)
                if entry.wal is not None:
                    entry.wal.close()
                    entry.wal = None

    def __enter__(self) -> "BypassRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

"""The retrieval engine: query processing over a feature collection.

The engine is the "Query/Result" box of Figure 4 in the paper: given a query
point, a result-set size ``k`` and a (possibly feedback-adjusted) distance
function, it returns the ``k`` closest database objects.

**One execution path.**  In the paper a query is always ``(q, k, Δ, W)``, so
every public entry point — ``search`` / ``search_batch`` /
``search_with_parameters`` / ``search_batch_with_parameters`` — is a thin
wrapper that validates its arguments into one
:class:`~repro.database.query.QueryBatch` and hands it to ``execute(batch,
budget=...)``.  The wrappers, ``execute`` and the counter bookkeeping are
defined once, on :class:`QueryEngine`, and inherited by both engines
(:class:`RetrievalEngine` here, :class:`~repro.database.sharding.ShardedEngine`
next door); an engine only says how it *answers* a validated batch:

``QueryBatch`` → ``execute`` → one blocked scan
(:func:`~repro.database.knn.scan_segments`, over the frozen corpus or over a
live snapshot's base and delta segments), or the shard fan-out →
:func:`~repro.database.index.merge_topk`.

:class:`RetrievalEngine` owns

* the :class:`~repro.database.collection.FeatureCollection` (or a
  :class:`~repro.database.segments.LiveCollection`),
* the default distance function (unweighted Euclidean in the experiments), and
* a linear-scan engine that handles arbitrary per-query distances.

The scan is the one access path: FeedbackBypass queries carry a per-query
``(Δ, W)``, which a metric tree built for one fixed metric cannot serve, so
the trees (:mod:`~repro.database.vptree`, :mod:`~repro.database.mtree`)
stay standalone indexes the access-method ablation calls directly.  Every
query row is counted in ``scan_fallbacks`` (``index_hits`` stays 0) so the
stats shape of :meth:`RetrievalEngine.stats` is stable.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.database.budget import Budget
from repro.database.collection import FeatureCollection
from repro.database.knn import LinearScanIndex
from repro.database.query import QueryBatch, ResultSet
from repro.database.segments import LiveCollection
from repro.distances.base import DistanceFunction
from repro.distances.weighted_euclidean import WeightedEuclideanDistance
from repro.utils.validation import ValidationError, as_float_vector


def _one_row(vector, name: str, dimension: int) -> np.ndarray:
    """A single ``dimension``-D vector as the one-row matrix ``QueryBatch`` takes.

    Anything that is not one vector is rejected here, in the caller's terms
    (``query point must have dimension 6, got 5``), before it is lifted.
    """
    return as_float_vector(vector, name=name, dim=dimension)[None, :]


class QueryEngine:
    """The query surface and counter bookkeeping shared by both engines.

    Subclasses implement :meth:`_answer` — how a validated
    :class:`~repro.database.query.QueryBatch` is answered on their frozen
    corpus layout; a live collection is answered here, by one scan of its
    snapshot — and :meth:`stats`; everything a caller sees (the four
    ``search*`` wrappers, ``execute``, the feedback
    accounting) lives here once.

    Counter updates are guarded by a lock so an engine shared by a worker
    pool (see :mod:`repro.database.sharding`) never loses an update: a bare
    ``+= 1`` is a read-modify-write that can interleave across threads.
    Searches themselves are read-only over immutable state and need no
    synchronisation.
    """

    _COUNTERS = (
        "n_searches",
        "n_batches",
        "n_objects_retrieved",
        "index_hits",
        "scan_fallbacks",
        "feedback_iterations",
        "frontier_batches",
        "delta_hits",
    )

    def __init__(
        self,
        collection: "FeatureCollection | LiveCollection",
        default_distance: "DistanceFunction | None",
    ) -> None:
        self._collection = collection
        self._live = isinstance(collection, LiveCollection)
        if default_distance is None:
            default_distance = WeightedEuclideanDistance.default(collection.dimension)
        if default_distance.dimension != collection.dimension:
            raise ValidationError("default distance dimensionality does not match the collection")
        self._default_distance = default_distance
        self._counter_lock = threading.Lock()
        self._counters = dict.fromkeys(self._COUNTERS, 0)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def collection(self) -> "FeatureCollection | LiveCollection":
        """The full collection served (frozen or live) — the view feedback code sees."""
        return self._collection

    @property
    def is_live(self) -> bool:
        """True when the engine serves a mutable :class:`LiveCollection`."""
        return self._live

    @property
    def default_distance(self) -> DistanceFunction:
        """The distance used when none is supplied with the query."""
        return self._default_distance

    # ------------------------------------------------------------------ #
    # Counters
    # ------------------------------------------------------------------ #
    def _count(self, **increments: int) -> None:
        with self._counter_lock:
            for name, value in increments.items():
                self._counters[name] += value

    def _counter_snapshot(self) -> dict[str, int]:
        with self._counter_lock:
            return dict(self._counters)

    def record_feedback_iterations(self, count: int = 1) -> None:
        """Account ``count`` feedback-loop iterations (re-searches).

        Called by the feedback engine (one per sequential loop iteration) and
        by the frontier scheduler (one per active query per frontier round).
        """
        self._count(feedback_iterations=int(count))

    def record_frontier_batch(self, count: int = 1) -> None:
        """Account ``count`` batched searches dispatched by the frontier."""
        self._count(frontier_batches=int(count))

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _answer(
        self, batch: QueryBatch, budget: "Budget | None", batches: int
    ) -> "tuple[list[ResultSet], dict[str, int]]":
        """Answer a validated batch on this engine's corpus layout.

        Returns the results and the dispatch counters the answer adds
        (``scan_fallbacks``), which
        :meth:`_run` records with the volume counters in one lock round.
        ``batches`` is what the caller counts for this request in
        ``n_batches`` (0 from the single-row wrappers); an engine that fans
        out to other engines enters them with the same count.
        """
        raise NotImplementedError

    def _answer_live(
        self, batch: QueryBatch, budget: "Budget | None"
    ) -> "tuple[list[ResultSet], dict[str, int]]":
        """Answer a batch on the current snapshot of a live collection.

        Every row runs on the snapshot's one streamed scan over base and
        deltas (``scan_fallbacks``); any resident delta segment also counts
        as a ``delta_hits`` consultation.
        """
        batch = batch.resolved(self._default_distance)
        snapshot = self._collection.snapshot()
        dispatch = {
            "scan_fallbacks": batch.n_rows,
            "delta_hits": batch.n_rows if snapshot.n_delta_segments else 0,
        }
        return snapshot.execute(batch, budget=budget), dispatch

    def _run(self, batch: QueryBatch, budget: "Budget | None", batches: int) -> "list[ResultSet]":
        if self._live:
            results, dispatch = self._answer_live(batch, budget)
        else:
            results, dispatch = self._answer(batch, budget, batches)
        self._count(
            n_searches=len(results),
            n_objects_retrieved=sum(len(result) for result in results),
            n_batches=batches,
            **dispatch,
        )
        return results

    def execute(self, batch: QueryBatch, *, budget: "Budget | None" = None) -> "list[ResultSet]":
        """Answer a validated :class:`~repro.database.query.QueryBatch`.

        The one execution path: every ``search*`` wrapper below builds a
        batch and lands here.  A ``budget`` (see
        :class:`~repro.database.budget.Budget`) makes the request anytime:
        whichever layer answers charges its own work, opens its own coverage
        scope and records what the budget could not afford, so results may
        hold fewer than ``k`` neighbours and the coverage accumulates on the
        budget object.  Absent or unlimited budgets take every exact path
        verbatim.  It stays a separate argument because it is mutable
        per-request accounting — the batch is plain data that also crosses
        the pipe to shard worker processes.
        """
        return self._run(batch, budget, batches=1)

    # ------------------------------------------------------------------ #
    # The query surface: wrappers that build a batch
    # ------------------------------------------------------------------ #
    def search(
        self,
        query_point,
        k: int,
        distance: DistanceFunction | None = None,
        *,
        budget: "Budget | None" = None,
    ) -> ResultSet:
        """Return the ``k`` objects closest to ``query_point``.

        When ``distance`` is omitted the default distance applies.  A
        one-row :meth:`search_batch` (identical bits) that counts no batch
        in :meth:`stats`.
        """
        dimension = self._collection.dimension
        batch = QueryBatch.plain(
            _one_row(query_point, "query point", dimension), k, distance, dimension=dimension
        )
        return self._run(batch, budget, batches=0)[0]

    def search_batch(
        self,
        query_points,
        k: int,
        distance: DistanceFunction | None = None,
        precision: str = "fast",
        *,
        budget: "Budget | None" = None,
    ) -> list[ResultSet]:
        """Return the ``k`` nearest neighbours of every row of ``query_points``.

        Byte-identical to ``[self.search(q, k, distance) for q in
        query_points]`` but dispatched once (one kernel matrix per scan
        block for the linear scan); the dispatch counters count one decision
        per query so batch and loop report identically.

        The linear scans select candidates with a float32 kernel and
        re-score them exactly in float64 (see
        :mod:`repro.database.knn`); ``precision="exact"`` overrides that
        with the float64 kernels, and the results are byte-identical either
        way.
        """
        batch = QueryBatch.plain(
            query_points, k, distance, precision, dimension=self._collection.dimension
        )
        return self.execute(batch, budget=budget)

    def search_with_parameters(
        self, query_point, k: int, delta, weights, *, budget: "Budget | None" = None
    ) -> ResultSet:
        """Search with explicit query-parameter overrides.

        ``delta`` shifts the query point (``q_opt = q + Δ``) and ``weights``
        parameterises the weighted Euclidean distance — exactly how the
        optimal query parameters stored by FeedbackBypass are applied.  A
        one-row :meth:`search_batch_with_parameters` (identical bits) that
        counts no batch in :meth:`stats`.
        """
        dimension = self._collection.dimension
        batch = QueryBatch.with_parameters(
            _one_row(query_point, "query point", dimension),
            k,
            _one_row(delta, "delta", dimension),
            _one_row(weights, "weights", dimension),
            dimension=dimension,
        )
        return self._run(batch, budget, batches=0)[0]

    def search_batch_with_parameters(
        self,
        query_points,
        k: int,
        deltas,
        weights,
        precision: str = "fast",
        *,
        budget: "Budget | None" = None,
    ) -> list[ResultSet]:
        """Batched :meth:`search_with_parameters`: one (Δ, W) row per query.

        This is the FeedbackBypass first-round arm of a workload: every query
        carries its own predicted offset and weight vector, so no single
        distance object covers the batch.  The whole batch is still answered
        with matrix algebra — an approximate per-query-weight distance matrix
        selects candidates, in float32 unless ``precision="exact"``, which
        are then re-evaluated exactly — and the results match the per-query
        method byte for byte either way.
        """
        batch = QueryBatch.with_parameters(
            query_points, k, deltas, weights, precision, dimension=self._collection.dimension
        )
        return self.execute(batch, budget=budget)


class RetrievalEngine(QueryEngine):
    """k-NN query processing with pluggable distance functions.

    Parameters
    ----------
    collection:
        The indexed feature collection.
    default_distance:
        Distance used when a query does not override it; defaults to the
        unweighted Euclidean distance (the paper's default).
    """

    def __init__(
        self,
        collection: "FeatureCollection | LiveCollection",
        default_distance: DistanceFunction | None = None,
    ) -> None:
        super().__init__(collection, default_distance)
        # A live collection owns its own segments and their scans.
        self._scan = None if self._live else LinearScanIndex(collection)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def delta_hits(self) -> int:
        """Searches that had to consult at least one delta segment.

        Always zero on a frozen collection; on a live one it tracks how
        much query traffic runs while mutations are resident outside the
        base (compaction drives it back to zero-growth).
        """
        return self._counters["delta_hits"]

    @property
    def n_searches(self) -> int:
        """Number of k-NN searches executed so far."""
        return self._counters["n_searches"]

    @property
    def n_objects_retrieved(self) -> int:
        """Total number of objects returned over all searches.

        The Saved-Objects efficiency metric of Section 5.3 is a difference of
        this counter between two strategies.
        """
        return self._counters["n_objects_retrieved"]

    @property
    def scan_fallbacks(self) -> int:
        """Number of searches answered by the exact linear scan (all of them)."""
        return self._counters["scan_fallbacks"]

    @property
    def feedback_iterations(self) -> int:
        """Number of feedback-loop iterations (searches beyond the first)
        executed through this engine.

        The feedback paths record every re-search here, so the Saved-Cycles
        accounting of Figure 15 can be read straight off the engine instead
        of being recomputed from per-query loop results.
        """
        return self._counters["feedback_iterations"]

    @property
    def frontier_batches(self) -> int:
        """Number of batched searches dispatched by the frontier scheduler."""
        return self._counters["frontier_batches"]

    def describe(self) -> dict:
        """Static shape of this engine: what a serving front end advertises.

        Unlike :meth:`stats` (live counters) this is fixed at construction —
        the corpus size and dimensionality and the default distance family.
        The serving layer's ``info`` op returns it so clients can
        sanity-check what they connected to.
        """
        info = {
            "engine": type(self).__name__,
            "corpus_size": self._collection.size,
            "dimension": self._collection.dimension,
            "default_distance": type(self._default_distance).__name__,
        }
        if self._live:
            info["live"] = True
        return info

    def stats(self) -> dict[str, int]:
        """Dispatch and volume counters of this engine.

        Every query row is answered by the scan and counted in
        ``scan_fallbacks``; ``index_hits`` stays in the shape at 0.
        ``feedback_iterations`` / ``frontier_batches`` account for the
        relevance-feedback loop: how many re-searches the loops cost and how
        many of those were dispatched as frontier batches.  The snapshot is
        taken under the counter lock, so it is internally consistent even
        while worker threads are searching.
        """
        snapshot = self._counter_snapshot()
        delta_hits = snapshot.pop("delta_hits")
        if self._live:
            # Gated on live collections so frozen engines keep their exact
            # historical stats shape (asserted by the serving grids).
            snapshot["delta_hits"] = delta_hits
            snapshot["compactions"] = self._collection.n_compactions
        return snapshot

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _answer(
        self, batch: QueryBatch, budget: "Budget | None", batches: int
    ) -> "tuple[list[ResultSet], dict[str, int]]":
        """Answer a batch on the frozen corpus's linear scan."""
        batch = batch.resolved(self._default_distance)
        return self._scan.execute(batch, budget=budget), {"scan_fallbacks": batch.n_rows}

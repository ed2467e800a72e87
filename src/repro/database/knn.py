"""Exhaustive-scan k-nearest-neighbour search.

The linear scan is the reference k-NN engine: it is exact by construction and
fast in practice for the corpus sizes of the evaluation (a few thousand
vectors x 31 dimensions fit comfortably in a single vectorised distance
computation).  The metric indexes (:mod:`repro.database.vptree`,
:mod:`repro.database.mtree`) are validated against it.

Its :meth:`LinearScanIndex.execute` answers a whole validated
:class:`~repro.database.query.QueryBatch` — rows sharing one distance, or
rows carrying their own ``(Δ, W)`` — with pairwise distance matrices (one
BLAS product for the Gram-form families) followed by top-k selection: the
batch-first hot path of the retrieval engine, and the only scan loop in
the library.  :meth:`LinearScanIndex.search` is kept beside it as the
exact-definition reference (``distances_to`` + ``k_smallest``) the
equivalence grids compare every other path against.  Two scale features
live here:

* **Blocked scans** — the scan walks the corpus in cache-sized row blocks
  (:data:`DEFAULT_BLOCK_ROWS`; a shorter corpus is one block) and merges the
  per-block top-k lists through :func:`~repro.database.index.merge_topk`, so
  peak memory is O(``block_rows`` × queries) instead of O(corpus × queries):
  a million-vector corpus never materialises a ``(N, Q)`` distance matrix.
* **A float32 candidate stage, exact float64 confirmation** — the default
  scan.  Every family with a float32 kernel (weighted Euclidean, per-row
  weights, Mahalanobis, Minkowski) selects candidates from an
  order-preserving float32 surrogate (one sgemm over the workspace's
  float32 centred corpus for the Gram forms), widened by a margin sized
  from the row's :meth:`~repro.distances.base.DistanceFunction.term_bound`
  (ties included), and re-scores only those exactly in float64 with the
  global (distance, index) tie-break: **byte-identical** to
  :meth:`LinearScanIndex.search`.  Magnitudes past float32's safe range, a
  family without a float32 kernel and ``precision="exact"`` run the float64
  kernels instead.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import partial

import numpy as np

from repro.database.budget import Budget, effective_budget
from repro.database.collection import FeatureCollection
from repro.database.index import KNNIndex, k_smallest, merge_topk
from repro.database.query import QueryBatch, ResultSet
from repro.distances.base import (
    EXACT_MARGIN_SCALE,
    FAST_MARGIN_SCALE,
    FLOAT32_TERM_LIMIT,
    DistanceFunction,
)
from repro.distances.weighted_euclidean import (
    WeightedEuclideanDistance,
    pairwise_per_query_weights,
    per_query_weights_bound,
)
from repro.utils.validation import ValidationError, check_dimension

#: Corpus rows per scan block.  64k rows × 64 queries of float64 distances is
#: a 32 MiB working set — big enough to amortise per-block Python overhead,
#: small enough that the matrix, its argpartition scratch and the corpus
#: block itself stay cache- and RAM-friendly at million-vector scale.
DEFAULT_BLOCK_ROWS = 65536


class LinearScanIndex(KNNIndex):
    """Exact k-NN by scanning every vector.

    Unlike the metric indexes, the linear scan supports *any* distance
    function, including ones whose parameters change between queries — which
    is exactly what happens inside a feedback loop.  It is therefore the
    engine the interactive sessions use.

    Parameters
    ----------
    collection:
        The collection to scan.
    block_rows:
        Corpus rows per scan block (default :data:`DEFAULT_BLOCK_ROWS`).
        Batches against corpora at most this tall run as one matrix; taller
        corpora are scanned block by block with per-block top-k merging,
        bounding peak memory to O(``block_rows`` × queries).
    """

    def __init__(self, collection: FeatureCollection, *, block_rows: int | None = None) -> None:
        self._collection = collection
        self._block_rows = (
            DEFAULT_BLOCK_ROWS if block_rows is None else check_dimension(block_rows, "block_rows")
        )

    @property
    def collection(self) -> FeatureCollection:
        """The indexed collection."""
        return self._collection

    @property
    def block_rows(self) -> int:
        """Corpus rows per scan block of the batched path."""
        return self._block_rows

    def supports(self, distance: DistanceFunction) -> bool:
        """The scan serves any distance of matching dimensionality."""
        return distance.dimension == self._collection.dimension

    def _check_distance(self, distance: DistanceFunction) -> None:
        if distance.dimension != self._collection.dimension:
            raise ValidationError(
                "distance dimensionality does not match the collection "
                f"({distance.dimension} vs {self._collection.dimension})"
            )

    def search(self, query_point, k: int, distance: DistanceFunction = None) -> ResultSet:
        """Return the ``k`` vectors closest to ``query_point`` under ``distance``."""
        k = check_dimension(k, "k")
        if distance is None:
            raise ValidationError("the linear scan needs an explicit distance function")
        query_point = self._collection.validate_query_point(query_point)
        self._check_distance(distance)
        k = min(k, self._collection.size)
        distances = distance.distances_to(query_point, self._collection.vectors)
        indices, ordered = k_smallest(distances, k)
        return ResultSet.from_arrays(indices, ordered)

    def search_batch(
        self,
        query_points,
        k: int,
        distance: DistanceFunction = None,
        precision: str = "fast",
        *,
        budget: "Budget | None" = None,
    ) -> list[ResultSet]:
        """Answer every query row under one shared ``distance``.

        Validates the input into a :class:`~repro.database.query.QueryBatch`
        and runs :meth:`execute`; byte-identical to ``[search(q, k,
        distance) for q in query_points]`` for **either** precision
        (``"exact"`` only overrides the float32 candidate stage).
        """
        if distance is None:
            raise ValidationError("the linear scan needs an explicit distance function")
        batch = QueryBatch.plain(
            query_points, k, distance, precision, dimension=self._collection.dimension
        )
        return self.execute(batch, budget=budget)

    def execute(self, batch: QueryBatch, *, budget: "Budget | None" = None) -> list[ResultSet]:
        """Answer a validated batch with pairwise matrices + top-k selection.

        The one blocked scan of the library, for shared-distance and per-row
        ``(Δ, W)`` batches alike: the corpus is walked in
        :attr:`block_rows`-row workspace blocks (a short corpus is a single
        block), each block yields one top-k list per query
        (:func:`_block_topk`), and :func:`~repro.database.index.merge_topk`
        re-selects across blocks — same results as one ``(N, Q)`` matrix,
        peak memory bounded by the block.  Candidates come from the float32
        kernels unless :func:`_candidate_stage` says otherwise.
        Approximate matrices (every float32 matrix, the algebraic float64
        expansions) only select candidates, which are re-evaluated through
        the exact row-wise computation, so the bits equal :meth:`search`'s.

        A finite ``budget`` clamps the scan: blocks are charged at ``rows ×
        queries`` metric evaluations before being scanned, the last
        admissible block is shortened to exactly what the budget grants, and
        the unscanned tail is recorded as an unbounded skip in the budget's
        coverage.  Every block is granted at ``per_row = n_queries``
        evaluations per corpus row, so the rows scanned are a deterministic
        function of the remaining work cap — execution under a smaller cap
        is a strict prefix of execution under a larger one (the anytime
        monotonicity property) — and because per-(sub-)block top-k lists
        merge associatively, a budget large enough to scan everything is
        byte-identical to no budget at all.
        """
        n_queries = batch.n_rows
        if n_queries == 0:
            return []
        workspace = self._collection.workspace
        n_points = self._collection.size
        k = min(batch.k, n_points)
        stage = _candidate_stage(batch, workspace)
        effective = effective_budget(budget)
        if effective is None and budget is not None:
            budget.note_exact(n_points * n_queries)
        per_block = []
        with nullcontext() if effective is None else effective.scope(n_points * n_queries):
            for start in range(0, n_points, self._block_rows):
                rows = min(self._block_rows, n_points - start)
                granted = rows if effective is None else effective.grant_rows(rows, per_row=n_queries)
                if granted:
                    view = workspace.block(start, start + granted)
                    per_block.append(_block_topk(batch, k, view, *stage))
                if granted < rows:
                    # The rest of the corpus is unscanned and a scan carries
                    # no geometry to bound it: record an unbounded skip.
                    effective.note_skip(None)
                    break
        return merge_topk(per_block, k, n_queries)

    def range_search(self, query_point, radius: float, distance: DistanceFunction) -> ResultSet:
        """Return every vector within ``radius`` of ``query_point``."""
        query_point = self._collection.validate_query_point(query_point)
        if radius < 0:
            raise ValidationError("radius must be non-negative")
        distances = distance.distances_to(query_point, self._collection.vectors)
        hits = np.flatnonzero(distances <= radius)
        order = hits[np.lexsort((hits, distances[hits]))]
        return ResultSet.from_arrays(order, distances[order])


def _candidate_stage(batch: QueryBatch, workspace) -> tuple:
    """``(fast, bounds, query_norms)``: the stage ``batch`` takes and what sizes its margins.

    ``bounds`` is the per-row :meth:`~repro.distances.base.DistanceFunction.term_bound`
    on this corpus (``None``: no float32 kernel).  The float32 stage runs when
    the batch allows it and every term it forms — the bound, the squared
    centred magnitudes, the parameters — stays below
    :data:`~repro.distances.base.FLOAT32_TERM_LIMIT`: a property of the
    input, observed in ``O(Q·D)``.  ``query_norms`` (the centred ``Σ w q²``
    of the weighted Euclidean family, else ``None``) tighten the margins.
    """
    offsets = np.abs(batch.points - workspace.mean)
    reach = offsets + workspace.extent
    weights, distance = batch.weights, batch.distance
    if weights is None:
        term_bound = distance.term_bound
    else:
        term_bound = partial(per_query_weights_bound, weights)
    with np.errstate(over="ignore"):
        bounds = term_bound(reach)
        if bounds is None or batch.precision != "fast":
            return False, bounds, None
        parameters = distance.parameters() if weights is None else weights
        largest = max(bounds.max(), np.square(reach.max()), np.abs(parameters).max())
    seminorm = weights is not None or isinstance(distance, WeightedEuclideanDistance)
    query_norms = term_bound(offsets) if seminorm else None
    return bool(largest <= FLOAT32_TERM_LIMIT), bounds, query_norms


def _block_topk(batch: QueryBatch, k: int, view, fast: bool, bounds, query_norms) -> list:
    """Top-k of one corpus block per query, as ``(global labels, distances)``.

    The kernel step is chosen by what the batch carries: per-row weights run
    the per-query-weight expansion and re-score candidates with the weighted
    Euclidean row expression; a shared distance runs its ``pairwise`` kernel
    (float32 when ``fast``) and re-scores through ``distances_to`` — unless
    the kernel is row-exact in float64, in which case the matrix rows are
    selected directly.  Re-scored distances are exact float64 element-wise
    expressions per object, so the bits do not depend on how the corpus was
    blocked.
    """
    block_points = view.matrix
    block_k = min(k, block_points.shape[0])
    distance, weights = batch.distance, batch.weights
    precision = "fast" if fast else "exact"
    if weights is not None:
        matrix = pairwise_per_query_weights(
            batch.points, weights, block_points, workspace=view, precision=precision
        )
    else:
        matrix = distance.pairwise(batch.points, block_points, workspace=view, precision=precision)
    if weights is None and not fast and distance.pairwise_matches_rowwise:
        selected = [k_smallest(row, block_k) for row in matrix]
    else:
        # Candidate thresholds for the whole batch at once: the k-th
        # approximate value plus the error margin, a fraction of the row's
        # term bound on the matrix's own scale — squared for the float32
        # stage, the root of it for the float64 expansions, which return
        # distances (the row maxima for a family with no bound).
        if block_k == matrix.shape[1]:
            thresholds = np.full(matrix.shape[0], np.inf)
        else:
            # np.partition (values only) beats argpartition + gather: no
            # (Q, N) index array, and position block_k-1 *is* the k-th
            # smallest value.
            kth_values = np.partition(matrix, block_k - 1, axis=1)[:, block_k - 1]
            if bounds is None:
                margins = EXACT_MARGIN_SCALE * np.maximum(1.0, matrix.max(axis=1))
            elif not fast:
                margins = EXACT_MARGIN_SCALE * np.maximum(1.0, np.sqrt(bounds))
            else:
                if query_norms is not None:
                    # Only rows within the k-th value can decide the answer,
                    # and under a (semi)norm their terms are at most
                    # 3·|q|² + 2·kth: a tighter bound than the corpus extent.
                    nearby = 3.0 * query_norms + 2.0 * np.maximum(kth_values, 0.0)
                    bounds = np.minimum(bounds, nearby)
                margins = FAST_MARGIN_SCALE * np.maximum(1.0, bounds)
            thresholds = kth_values + margins
        selected = []
        for position, (query_point, row, threshold) in enumerate(
            zip(batch.points, matrix, thresholds)
        ):
            candidates = np.flatnonzero(row <= threshold)
            if weights is None:
                exact = distance.distances_to(query_point, block_points[candidates])
            else:
                # The same expression as WeightedEuclideanDistance.distances_to,
                # minus the per-query distance object and its re-validation.
                offsets = block_points[candidates] - query_point
                exact = np.sqrt(np.sum(weights[position] * offsets * offsets, axis=1))
            selected.append(k_smallest(exact, block_k, labels=candidates))
    if view.start:
        return [(labels + view.start, ordered) for labels, ordered in selected]
    return selected

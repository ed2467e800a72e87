"""Exhaustive-scan k-nearest-neighbour search.

The linear scan is the reference k-NN engine: it is exact by construction and
fast in practice for the corpus sizes of the evaluation (a few thousand
vectors x 31 dimensions fit comfortably in a single vectorised distance
computation).  The metric indexes (:mod:`repro.database.vptree`,
:mod:`repro.database.mtree`) are validated against it.

Its :meth:`LinearScanIndex.execute` answers a whole validated
:class:`~repro.database.query.QueryBatch` — rows sharing one distance, or
rows carrying their own ``(Δ, W)`` — in one streamed pass: the batch-first
hot path of the retrieval engine, and the only scan loop in the library.
:meth:`LinearScanIndex.search` is kept beside it as the exact-definition
reference (``distances_to`` + ``k_smallest``) the equivalence grids compare
every other path against.  Two scale features live here:

* **Blocked scans** — the scan walks the corpus in cache-sized row blocks
  (:data:`DEFAULT_BLOCK_ROWS`; a shorter corpus is one block), one
  block-kernel call per block, and pools each block's candidates under a
  carried per-query threshold instead of selecting and merging per block:
  peak memory is O(``block_rows`` × queries), never O(corpus × queries).
* **A float32 candidate stage, exact float64 confirmation** — the default
  scan.  Every family with a float32 kernel (weighted Euclidean, per-row
  weights, Minkowski) pools candidates from an order-preserving float32
  surrogate (one sgemm per block over the workspace's dimension-major
  float32 centred corpus for the Gram forms, a query-major ``(Q, rows)``
  matrix), widened by a margin sized from the row's
  :meth:`~repro.distances.base.DistanceFunction.term_bound` (ties
  included), and re-scores the pool once, exactly in float64 with the
  global (distance, index) tie-break: **byte-identical** to
  :meth:`LinearScanIndex.search`.  Magnitudes past float32's safe range, a
  family without a float32 kernel and ``precision="exact"`` run the float64
  kernels through the same pass.
"""

from __future__ import annotations

from contextlib import nullcontext
from itertools import repeat

import numpy as np

from repro.database.budget import Budget, effective_budget
from repro.database.collection import FeatureCollection
from repro.database.index import KNNIndex, k_smallest
from repro.database.query import QueryBatch, ResultSet
from repro.distances.base import (
    EXACT_MARGIN_SCALE,
    FAST_MARGIN_SCALE,
    FLOAT32_TERM_LIMIT,
    DistanceFunction,
)
from repro.distances.weighted_euclidean import (
    GramKernel,
    WeightedEuclideanDistance,
    per_query_weights_bound,
    weighted_distances,
)
from repro.utils.validation import ValidationError, check_dimension

#: Corpus rows per scan block.  At 64 dimensions an 8,192-row block of the
#: float32 centred corpus is 2 MiB and its ``(16, rows)`` float32 matrix
#: 512 KiB, which stays in cache while its norms are added and its entries
#: pooled.  Measured at D = 64: 2,048 and 4,096 rows slower, 16,384 no faster.
DEFAULT_BLOCK_ROWS = 8192


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
        corpora are scanned block by block into one candidate pool per
        query, bounding peak memory to O(``block_rows`` × queries).
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
        """Answer a validated batch in one streamed pass over the corpus.

        The one blocked scan of the library, for shared-distance and per-row
        ``(Δ, W)`` batches alike: each :attr:`block_rows`-row workspace
        block (a short corpus is one block) feeds one candidate pool per
        query, and the pools are re-scored once (:class:`_StreamedScan`) —
        same results as one ``(Q, N)`` matrix, peak memory bounded by the
        block, bits equal to :meth:`search`'s.

        A finite ``budget`` clamps the scan: blocks are charged at ``rows ×
        queries`` metric evaluations before being scanned, the last
        admissible block is shortened to exactly what the budget grants, and
        the unscanned tail is recorded as an unbounded skip in the budget's
        coverage.  Every block is granted at ``per_row = n_queries``
        evaluations per corpus row, so the rows scanned are a deterministic
        function of the remaining work cap — execution under a smaller cap
        answers exactly over a prefix of the rows a larger cap scans (the
        anytime monotonicity property) — and a budget large enough to scan
        everything is byte-identical to no budget at all.
        """
        n_queries = batch.n_rows
        if n_queries == 0:
            return []
        workspace = self._collection.workspace
        n_points = self._collection.size
        scan = _StreamedScan(batch, min(batch.k, n_points), self._block_rows, workspace)
        effective = effective_budget(budget)
        if effective is None and budget is not None:
            budget.note_exact(n_points * n_queries)
        with nullcontext() if effective is None else effective.scope(n_points * n_queries):
            for start in range(0, n_points, self._block_rows):
                rows = min(self._block_rows, n_points - start)
                granted = rows if effective is None else effective.grant_rows(rows, per_row=n_queries)
                if granted == n_points:  # the whole corpus is one block: no view needed
                    scan.add(workspace)
                elif granted:
                    scan.add(workspace.block(start, start + granted))
                if granted < rows:
                    # The rest of the corpus is unscanned and a scan carries
                    # no geometry to bound it: record an unbounded skip.
                    effective.note_skip(None)
                    break
        return scan.results()

    def range_search(self, query_point, radius: float, distance: DistanceFunction) -> ResultSet:
        """Return every vector within ``radius`` of ``query_point``."""
        query_point = self._collection.validate_query_point(query_point)
        if radius < 0:
            raise ValidationError("radius must be non-negative")
        distances = distance.distances_to(query_point, self._collection.vectors)
        hits = np.flatnonzero(distances <= radius)
        order = hits[np.lexsort((hits, distances[hits]))]
        return ResultSet.from_arrays(order, distances[order])


class _StreamedScan:
    """The candidate pools of one streamed pass, and their one exact re-score.

    A query's cut is the k-th value of the first ``k`` rows scanned plus a
    margin from its :meth:`~repro.distances.base.DistanceFunction.term_bound`
    on the matrix's scale (squared for the float32 stage, the root for the
    float64 expansions, the largest value seen for a family without a
    bound).  Any subset's k-th value is at least the corpus's, so the cut
    holds for every later block; a pool that outgrows one block's entries
    re-derives it.  The float32 stage runs when the batch allows it and every
    term it forms (bound, squared centred magnitudes, parameters) stays
    below :data:`~repro.distances.base.FLOAT32_TERM_LIMIT`.
    """

    def __init__(self, batch: QueryBatch, k: int, block_rows: int, workspace) -> None:
        self.batch, self.k, self.vectors = batch, k, workspace.matrix
        self.limit = block_rows * batch.n_rows
        self.kth = None
        self.scanned = self.size = 0
        self.parts = []
        weights, distance = batch.weights, batch.distance
        centred = batch.points - workspace.mean
        reach = np.abs(centred)
        reach += workspace.extent
        with np.errstate(over="ignore"):
            if weights is None:
                self.bounds = distance.term_bound(reach)
            else:
                self.bounds = per_query_weights_bound(weights, reach)
            fast = self.bounds is not None and batch.precision == "fast"
            if fast:
                parameters = distance.parameters() if weights is None else weights
                largest = max(self.bounds.max(), reach.max() ** 2, np.abs(parameters).max())
                fast = largest <= FLOAT32_TERM_LIMIT
        precision = "fast" if fast else "exact"
        # Every query-side term is formed here, once per request; a block
        # costs only its own product and norms.
        if weights is None:
            self.kernel = distance.block_kernel(batch.points, centred, precision)
        else:
            self.kernel = GramKernel(centred, weights, precision)
        self.bar = np.inf
        self.scale = np.ones(batch.n_rows) if self.bounds is None else None

    def add(self, view) -> None:
        """Pool the entries of one corpus block under the current cut.

        Every kernel returns the block's ``(Q, rows)`` matrix query-major,
        so a flat hit position decodes to ``(query, row)`` by one ``divmod``.
        """
        matrix = self.kernel(view)
        rows = matrix.shape[1]
        if self.scale is not None:
            np.maximum(self.scale, matrix.max(axis=1), out=self.scale)
            if self.kth is not None:
                self._derive(self.kth)
        if not self.scanned and rows >= self.k:
            self._derive(np.partition(matrix, self.k - 1, axis=1)[:, self.k - 1])
        flat = np.flatnonzero(matrix <= self.bar)
        values = matrix.reshape(-1)[flat]
        queries, labels = np.divmod(flat, rows)
        if view.start:
            labels += view.start
        self.parts.append((labels, queries, values))
        self.scanned += rows
        self.size += flat.size
        if self.size > self.limit or (self.kth is None and self.scanned >= self.k):
            self._tighten()
            # Ties within a margin can keep the pool above the limit: doubling
            # it keeps the re-derivations amortised.
            self.limit = max(self.limit, 2 * self.size)

    def results(self) -> "list[ResultSet]":
        """Exact re-scoring of each query's pool: the top-k in (distance, label) order."""
        batch = self.batch
        if not self.parts:
            return [ResultSet.empty() for _ in range(batch.n_rows)]
        if len(self.parts) > 1:  # blocks pooled since the cut was last derived
            self._tighten()
        labels, _, _, edges = self._grouped()
        # Weighted Euclidean rows (shared or per-row weights) skip distances_to's
        # re-validation of rows already validated, not its expression; a
        # subclass may override distances_to, so only the exact type does.
        row_weights = batch.weights
        if row_weights is None:
            shared = type(batch.distance) is WeightedEuclideanDistance
            row_weights = repeat(batch.distance.parameters() if shared else None)
        results = []
        for position, (point, weights) in enumerate(zip(batch.points, row_weights)):
            candidates = labels[edges[position] : edges[position + 1]]
            if weights is None:
                exact = batch.distance.distances_to(point, self.vectors[candidates])
            else:
                exact = weighted_distances(point, self.vectors[candidates], weights)
            # The pool holds every row within the cut, ties included, so its
            # first k rows in (distance, label) order are the top-k.
            order = np.lexsort((candidates, exact))[: self.k]
            results.append(ResultSet._adopt(candidates[order], exact[order]))
        return results

    def _derive(self, kth: np.ndarray) -> None:
        """The cut ``kth`` + margin per query."""
        self.kth = kth
        if self.scale is not None:
            self.cut = kth + EXACT_MARGIN_SCALE * self.scale
        elif self.kernel.precision == "exact":
            self.cut = kth + EXACT_MARGIN_SCALE * np.maximum(1.0, np.sqrt(self.bounds))
        else:
            bounds, norms = self.bounds, self.kernel.norms
            if norms is not None:
                # Only rows within the k-th value can decide the answer, and
                # under a (semi)norm their terms are at most 3·|q|² + 2·kth.
                bounds = np.minimum(bounds, 3.0 * norms + 2.0 * np.maximum(kth, 0.0))
            self.cut = kth + FAST_MARGIN_SCALE * np.maximum(1.0, bounds)
        # The cut in the kernel's dtype, one step up: never tighter than the float64 one.
        dtype = np.float32 if self.kernel.precision == "fast" else np.float64
        self.bar = np.nextafter(self.cut.astype(dtype), np.inf)[:, None]

    def _tighten(self) -> None:
        """Re-derive the cut from the pool's k-th values and cut the pool to it."""
        labels, queries, values, edges = self._grouped()
        k = self.k
        kth = [np.partition(values[low:high], k - 1)[k - 1] if high - low >= k else np.inf
               for low, high in zip(edges[:-1], edges[1:])]
        self._derive(np.array(kth))
        keep = values <= self.cut[queries]
        self.parts = [(labels[keep], queries[keep], values[keep])]
        self.size = int(np.count_nonzero(keep))

    def _grouped(self) -> tuple:
        """The pool as ``(labels, queries, values, edges)``, query ``i`` at ``edges[i]:edges[i + 1]``."""
        parts = self.parts
        labels, queries, values = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
        if self.batch.n_rows == 1:
            return labels, queries, values, (0, labels.size)
        order = np.argsort(queries, kind="stable")
        labels, queries, values = labels[order], queries[order], values[order]
        return labels, queries, values, np.searchsorted(queries, np.arange(self.batch.n_rows + 1))

"""Exhaustive-scan k-nearest-neighbour search.

The linear scan is the reference k-NN engine: it is exact by construction and
fast in practice for the corpus sizes of the evaluation (a few thousand
vectors x 31 dimensions fit comfortably in a single vectorised distance
computation).  The metric indexes (:mod:`repro.database.vptree`,
:mod:`repro.database.mtree`) are validated against it.

Its :meth:`LinearScanIndex.execute` answers a whole validated
:class:`~repro.database.query.QueryBatch` — rows sharing one distance, or
rows carrying their own ``(Δ, W)`` — in one streamed pass: the batch-first
hot path of the retrieval engine.  The pass is :func:`scan_segments`, the
only scan loop in the library, which a live snapshot's segments share.
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

        The corpus is the one segment of :func:`scan_segments`, labelled by
        position; the bits equal :meth:`search`'s.
        """
        workspace = self._collection.workspace
        k = min(batch.k, self._collection.size)
        segments = ((workspace, 0, None),)
        return scan_segments(batch, k, segments, workspace, block_rows=self._block_rows, budget=budget)


def _unnoted(budget: Budget, answered: bool) -> None:
    """A frozen corpus has no segments to account."""


def scan_segments(
    batch: QueryBatch,
    k: int,
    segments,
    frame,
    *,
    block_rows: int = DEFAULT_BLOCK_ROWS,
    budget: "Budget | None" = None,
    note=_unnoted,
) -> "list[ResultSet]":
    """The one blocked scan loop: every segment's blocks feed one pool per query.

    ``segments`` are ``(workspace, labels, alive)`` in scan order.  Rows are
    centred on ``frame.mean``; labels are an offset or one per row, ascending
    across segments, so the position tie-break is the label one; ``alive``
    masks the rows a pool may hold (``None``: all).  ``frame.extent`` bounds
    ``|x - mean|`` over every row, and ``frame.matrix[label]`` is the row the
    exact re-score reads.  A finite ``budget`` charges resident rows, masked
    ones included, block by block; the last admissible block shrinks to its
    grant, the rest is a recorded skip, and ``note(budget, answered=...)``
    counts each segment as reached or not.  A smaller cap scans a prefix of
    a larger one's rows; a sufficient one is byte-identical to none.
    """
    n_queries = batch.n_rows
    if n_queries == 0:
        return []
    scan = _StreamedScan(batch, k, block_rows, frame)
    rows_total = sum(workspace.matrix.shape[0] for workspace, _, _ in segments) * n_queries
    effective = effective_budget(budget)
    if effective is None and budget is not None:
        budget.note_exact(rows_total)
        for _ in segments:
            note(budget, answered=True)
    with nullcontext() if effective is None else effective.scope(rows_total):
        for workspace, labels, alive in segments:
            if effective is not None:
                answered = not effective.exhausted()
                note(effective, answered=answered)
                if not answered:
                    effective.note_skip()
                    continue
            n_rows = workspace.matrix.shape[0]
            for start in range(0, n_rows, block_rows):
                rows = min(block_rows, n_rows - start)
                granted = rows if effective is None else effective.grant_rows(rows, per_row=n_queries)
                if granted == n_rows:  # the whole segment is one block: no view needed
                    scan.add(workspace, labels, alive)
                elif granted:
                    stop = start + granted
                    scan.add(
                        workspace.block(start, stop),
                        labels[start:stop] if isinstance(labels, np.ndarray) else labels + start,
                        None if alive is None else alive[start:stop],
                    )
                if granted < rows:
                    effective.note_skip()
                    break
    return scan.results()


class _StreamedScan:
    """The candidate pools of one streamed pass, and their one exact re-score.

    A query's cut is the k-th value of the first ``k`` alive rows scanned plus a
    margin from its :meth:`~repro.distances.base.DistanceFunction.term_bound`
    on the matrix's scale (squared for the float32 stage, the root for the
    float64 expansions, the largest value seen for a family without a
    bound).  Any subset's k-th value is at least the corpus's, so the cut
    holds for every later block; a pool that outgrows one block's entries
    re-derives it.  The float32 stage runs when the batch allows it and every
    term it forms (bound, squared centred magnitudes, parameters) stays
    below :data:`~repro.distances.base.FLOAT32_TERM_LIMIT`.
    """

    def __init__(self, batch: QueryBatch, k: int, block_rows: int, frame) -> None:
        self.batch, self.k, self.vectors = batch, k, frame.matrix
        self.limit = block_rows * batch.n_rows
        self.kth = None
        self.scanned = self.size = 0
        self.parts = []
        weights, distance = batch.weights, batch.distance
        # The shared distance's parameters (copied once per request) or the
        # per-row weights.
        self.parameters = distance.parameters() if weights is None else weights
        centred = batch.points - frame.mean
        reach = np.abs(centred)
        reach += frame.extent
        with np.errstate(over="ignore"):
            if weights is None:
                self.bounds = distance.term_bound(reach)
            else:
                self.bounds = per_query_weights_bound(weights, reach)
            fast = self.bounds is not None and batch.precision == "fast"
            if fast:
                largest = max(self.bounds.max(), reach.max() ** 2, np.abs(self.parameters).max())
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

    def add(self, view, labels=0, alive=None) -> None:
        """Pool the entries of one corpus block under the current cut.

        Every kernel returns the block's ``(Q, rows)`` matrix query-major,
        so a flat hit position decodes to ``(query, row)`` by one ``divmod``;
        ``labels`` maps a row to its label (an offset, or one label per
        row).  Rows outside the ``alive`` mask enter neither the pool nor
        the first k-th value: an explicit mask, because a sentinel value
        would pass a cut that is still infinite.
        """
        matrix = self.kernel(view)
        rows = matrix.shape[1]
        if self.scale is not None:
            # Masked rows may raise the scale: that only widens the margin.
            np.maximum(self.scale, matrix.max(axis=1), out=self.scale)
            if self.kth is not None:
                self._derive(self.kth)
        eligible = rows if alive is None else int(np.count_nonzero(alive))
        if not self.scanned and eligible >= self.k:
            first = matrix.copy() if alive is None else matrix.compress(alive, axis=1)
            first.partition(self.k - 1, axis=1)
            self._derive(first[:, self.k - 1])
        hits = matrix <= self.bar
        if alive is not None:
            hits &= alive
        flat = np.flatnonzero(hits)
        values = matrix.reshape(-1)[flat]
        queries, positions = np.divmod(flat, rows)
        positions = labels[positions] if isinstance(labels, np.ndarray) else positions + labels
        self.parts.append((positions, queries, values))
        self.scanned += eligible
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
        if len(self.parts) > 1 and self.size > 2 * self.k * batch.n_rows:
            # Blocks pooled since the cut was last derived hold more than a
            # re-derived cut would keep: cutting first saves re-score work.
            self._tighten()
        labels, _, _, edges = self._grouped()
        # Weighted Euclidean rows (shared or per-row weights) skip distances_to's
        # re-validation of rows already validated, not its expression; a
        # subclass may override distances_to, so only the exact type does.
        row_weights = batch.weights
        if row_weights is None:
            shared = type(batch.distance) is WeightedEuclideanDistance
            row_weights = repeat(self.parameters if shared else None)
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

"""Vantage-point tree: a simple exact metric index.

A VP-tree partitions the data by distance to a randomly chosen vantage point:
objects closer than the median go to the inner subtree, the rest to the
outer subtree.  k-NN search descends the tree and prunes subtrees that cannot
contain anything closer than the current k-th best, using the triangle
inequality.  The index is built for a *fixed* metric; it serves as the
light-weight counterpart to the M-tree and as a cross-check for the linear
scan.

:meth:`VPTreeIndex.search_batch` answers a whole query frontier with one
shared tree walk: every node is descended at most twice for the entire batch
(once for the queries whose closer side it is, once for the stragglers whose
pruning ball crosses the vantage sphere), with the vantage distances of all
active queries evaluated in a single vectorised call.  Both search paths
evaluate the metric through the same code on the same operand orientation,
which keeps the batch results byte-identical to the looped single-query
search — the tier-1 contract of the index protocol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.database.collection import FeatureCollection
from repro.database.index import KNNIndex, NeighborHeap
from repro.database.query import ResultSet
from repro.distances.base import DistanceFunction
from repro.utils.rng import ensure_rng
from repro.utils.validation import ValidationError, as_float_matrix, check_dimension


@dataclass
class _VPNode:
    vantage_index: int
    radius: float
    inner: "_VPNode | None"
    outer: "_VPNode | None"
    bucket: np.ndarray | None  # leaf bucket of collection indices (vantage included)


class VPTreeIndex(KNNIndex):
    """Exact k-NN via a vantage-point tree built for a fixed metric."""

    def __init__(
        self,
        collection: FeatureCollection,
        distance: DistanceFunction,
        *,
        leaf_size: int = 16,
        seed: int = 0,
    ) -> None:
        if distance.dimension != collection.dimension:
            raise ValidationError("distance dimensionality does not match the collection")
        if leaf_size < 1:
            raise ValidationError("leaf_size must be >= 1")
        self._collection = collection
        self._distance = distance
        self._leaf_size = int(leaf_size)
        self._rng = ensure_rng(seed)
        indices = np.arange(collection.size, dtype=np.intp)
        self._root = self._build(indices)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _build(self, indices: np.ndarray) -> _VPNode | None:
        if indices.size == 0:
            return None
        if indices.size <= self._leaf_size:
            return _VPNode(vantage_index=int(indices[0]), radius=0.0, inner=None, outer=None, bucket=indices)
        position = int(self._rng.integers(0, indices.size))
        vantage = int(indices[position])
        rest = np.delete(indices, position)
        vantage_vector = self._collection.vectors[vantage]
        distances = self._distance.distances_to(vantage_vector, self._collection.vectors[rest])
        radius = float(np.median(distances))
        inner_mask = distances <= radius
        inner = self._build(rest[inner_mask])
        outer = self._build(rest[~inner_mask])
        return _VPNode(vantage_index=vantage, radius=radius, inner=inner, outer=outer, bucket=None)

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    @property
    def collection(self) -> FeatureCollection:
        """The indexed collection."""
        return self._collection

    @property
    def distance(self) -> DistanceFunction:
        """The metric the tree was built for."""
        return self._distance

    def _check_search_distance(self, distance: DistanceFunction | None) -> None:
        # The pruning bounds rely on the triangle inequality of the build
        # metric instance, so any other distance is rejected.
        if distance is not None and distance is not self._distance:
            raise ValidationError("a VP-tree can only be searched with the metric it was built for")

    def _vantage_distances(self, node: _VPNode, query_rows: np.ndarray) -> np.ndarray:
        """Distances from every query row to the node's vantage point.

        The vantage vector is passed as the *query* argument of
        ``distances_to`` so the single-query and the shared-traversal search
        evaluate the metric through the same code on the same operand
        orientation — per-row results are then bit-identical regardless of
        how many queries share the call, which is what keeps
        :meth:`search_batch` byte-identical to the looped :meth:`search`.
        """
        return self._distance.distances_to(self._collection.vectors[node.vantage_index], query_rows)

    def _offer_bucket(self, node: _VPNode, query_point: np.ndarray, heap: NeighborHeap) -> None:
        """Offer a leaf bucket's objects to one query's neighbour heap.

        Objects farther than the current k-th best bound can never enter the
        heap, so they are dropped with one vectorised comparison before the
        per-object offers — the offer loop then only touches genuine
        candidates.  The filter keeps boundary ties (``<=``), whose outcome
        the heap's index tie-break decides.
        """
        distances = self._distance.distances_to(query_point, self._collection.vectors[node.bucket])
        near = distances <= heap.bound()
        for index, dist in zip(node.bucket[near], distances[near]):
            heap.offer(float(dist), int(index))

    def search(self, query_point, k: int, distance: DistanceFunction | None = None) -> ResultSet:
        """Return the ``k`` nearest neighbours of ``query_point``.

        ``distance`` may be omitted (the build metric is used); passing a
        different metric raises, because the tree's pruning bounds would be
        invalid.  Ties on distance are broken by ascending collection index,
        matching the linear scan.
        """
        k = check_dimension(k, "k")
        self._check_search_distance(distance)
        query_point = self._collection.validate_query_point(query_point)
        k = min(k, self._collection.size)

        heap = NeighborHeap(k)
        self._search_node(self._root, query_point, heap)
        return heap.result_set()

    def _search_node(self, node: _VPNode | None, query_point: np.ndarray, heap: NeighborHeap) -> None:
        if node is None:
            return
        if node.bucket is not None:
            self._offer_bucket(node, query_point, heap)
            return

        vantage_distance = float(self._vantage_distances(node, query_point[None, :])[0])
        heap.offer(vantage_distance, int(node.vantage_index))

        if vantage_distance <= node.radius:
            first, second = node.inner, node.outer
        else:
            first, second = node.outer, node.inner
        self._search_node(first, query_point, heap)
        # The second subtree can only contain closer objects when the query
        # ball of the current k-th best radius crosses the vantage sphere.
        if abs(vantage_distance - node.radius) <= heap.bound():
            self._search_node(second, query_point, heap)

    def search_batch(
        self, query_points, k: int, distance: DistanceFunction | None = None
    ) -> list[ResultSet]:
        """Answer every query row with one shared tree traversal.

        Instead of descending the tree once per query (the looped protocol
        default), the whole batch walks the tree together: at every internal
        node the vantage distances of all still-active queries are computed
        in one vectorised call, and each subtree is entered at most twice for
        the entire batch — once with the queries whose closer half it is and
        once with the queries whose pruning ball turned out to cross the
        vantage sphere.  Per-query pruning bounds are kept in per-query
        neighbour heaps, so exactly the queries that would visit a subtree on
        their own visit it here.

        The result is byte-identical to ``[search(q, k) for q in
        query_points]`` (the KNNIndex batch contract): the neighbour-set
        content of a heap is independent of offer order, the pruning test is
        conservative, and both paths evaluate the metric through
        :meth:`_vantage_distances` on identical operands.
        """
        k = check_dimension(k, "k")
        self._check_search_distance(distance)
        query_points = np.ascontiguousarray(
            as_float_matrix(query_points, name="query_points", shape=(None, self._collection.dimension))
        )
        n_queries = query_points.shape[0]
        k = min(k, self._collection.size)
        heaps = [NeighborHeap(k) for _ in range(n_queries)]
        if n_queries:
            self._search_node_batch(self._root, query_points, np.arange(n_queries, dtype=np.intp), heaps)
        return [heap.result_set() for heap in heaps]

    def _search_node_batch(
        self,
        node: _VPNode | None,
        query_points: np.ndarray,
        active: np.ndarray,
        heaps: list[NeighborHeap],
    ) -> None:
        if node is None or active.size == 0:
            return
        if node.bucket is not None:
            for query_index in active:
                # Same call as the single-query leaf visit, per active query:
                # bucket distances stay bit-identical to the looped search.
                self._offer_bucket(node, query_points[query_index], heaps[query_index])
            return

        vantage_distances = self._vantage_distances(node, query_points[active])
        vantage_index = int(node.vantage_index)
        for position, query_index in enumerate(active):
            heap = heaps[query_index]
            vantage_distance = float(vantage_distances[position])
            if vantage_distance <= heap.bound():
                heap.offer(vantage_distance, vantage_index)

        inner_first = vantage_distances <= node.radius
        margins = np.abs(vantage_distances - node.radius)

        # Every query descends its closer subtree first (better bounds prune
        # more of the second visit), then the stragglers whose current k-th
        # best ball still crosses the vantage sphere sweep the other side.
        self._search_node_batch(node.inner, query_points, active[inner_first], heaps)
        outer_second = np.fromiter(
            (
                inner_first[position] and margins[position] <= heaps[query_index].bound()
                for position, query_index in enumerate(active)
            ),
            dtype=bool,
            count=active.size,
        )
        self._search_node_batch(
            node.outer, query_points, np.concatenate([active[~inner_first], active[outer_second]]), heaps
        )
        inner_second = np.fromiter(
            (
                not inner_first[position] and margins[position] <= heaps[query_index].bound()
                for position, query_index in enumerate(active)
            ),
            dtype=bool,
            count=active.size,
        )
        self._search_node_batch(node.inner, query_points, active[inner_second], heaps)

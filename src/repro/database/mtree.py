"""M-tree: a dynamic, paged metric index (Ciaccia, Patella, Zezula, VLDB 1997).

The paper cites the M-tree as a typical access method behind the query
processing step of an interactive retrieval system.  This implementation
covers the parts that matter for that role:

* dynamic insertion with node splitting (random promotion + generalised
  hyperplane partitioning, the ``RANDOM`` / ``GEN_HYPERPLANE`` policy of the
  original paper),
* routing entries with covering radii and distances to the parent pivot, so
  both pruning rules of the original algorithm apply,
* exact k-NN search with a priority queue over nodes, and
* a shared-traversal :meth:`MTreeIndex.search_batch` that answers a whole
  query batch in one depth-first walk, evaluating both pruning rules for
  every active query at once (vectorised pivot distances, per-query
  neighbour heaps) — byte-identical to the looped single-query search.

Like the VP-tree, an M-tree is built for a fixed metric and rejects any
other, so it cannot serve a feedback-adjusted query: the engines answer every
query with the linear scan, and the trees stand alone as the access methods
the k-NN index ablation compares.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.database.collection import FeatureCollection
from repro.database.index import KNNIndex, NeighborHeap
from repro.database.query import ResultSet
from repro.distances.base import DistanceFunction
from repro.utils.rng import ensure_rng
from repro.utils.validation import ValidationError, as_float_matrix, check_dimension


@dataclass
class _LeafEntry:
    """A database object stored in a leaf node."""

    object_index: int
    distance_to_parent: float = 0.0


@dataclass
class _RoutingEntry:
    """A routing object: pivot, covering radius and child node."""

    pivot_index: int
    covering_radius: float
    distance_to_parent: float
    child: "_Node"


@dataclass
class _Node:
    """An M-tree node (leaf or internal)."""

    is_leaf: bool
    entries: list = field(default_factory=list)
    parent: "_Node | None" = None
    parent_entry: _RoutingEntry | None = None


class MTreeIndex(KNNIndex):
    """Exact k-NN via a dynamically built M-tree.

    Parameters
    ----------
    collection:
        The vectors to index.
    distance:
        The metric the tree is built for.
    node_capacity:
        Maximum number of entries per node before it splits.
    seed:
        Seed for the random promotion policy.
    """

    def __init__(
        self,
        collection: FeatureCollection,
        distance: DistanceFunction,
        *,
        node_capacity: int = 16,
        seed: int = 0,
    ) -> None:
        if distance.dimension != collection.dimension:
            raise ValidationError("distance dimensionality does not match the collection")
        if node_capacity < 4:
            raise ValidationError("node_capacity must be at least 4")
        self._collection = collection
        self._distance = distance
        self._capacity = int(node_capacity)
        self._rng = ensure_rng(seed)
        self._root = _Node(is_leaf=True)
        self._distance_computations = 0
        for object_index in range(collection.size):
            self._insert(object_index)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def collection(self) -> FeatureCollection:
        """The indexed collection."""
        return self._collection

    @property
    def distance(self) -> DistanceFunction:
        """The metric the tree was built for."""
        return self._distance

    @property
    def distance_computations(self) -> int:
        """Number of metric evaluations performed so far (build + searches)."""
        return self._distance_computations

    # ------------------------------------------------------------------ #
    # Distance helper
    # ------------------------------------------------------------------ #
    def _dist(self, first_index: int, second_index: int) -> float:
        self._distance_computations += 1
        return self._distance.distance(
            self._collection.vectors[first_index], self._collection.vectors[second_index]
        )

    def _pivot_distances(self, object_index: int, query_rows: np.ndarray) -> np.ndarray:
        """Distances from every query row to one stored object.

        The stored vector is passed as the *query* argument of
        ``distances_to`` so the single-query and the shared-traversal search
        evaluate the metric through the same code on the same operand
        orientation (the VP-tree's ``_vantage_distances`` trick) — per-row
        results are then bit-identical regardless of how many queries share
        the call, which is what keeps :meth:`search_batch` byte-identical to
        the looped :meth:`search`.
        """
        self._distance_computations += int(query_rows.shape[0])
        return self._distance.distances_to(self._collection.vectors[object_index], query_rows)

    def _dist_to_point(self, point: np.ndarray, object_index: int) -> float:
        return float(self._pivot_distances(object_index, point[None, :])[0])

    # ------------------------------------------------------------------ #
    # Insertion
    # ------------------------------------------------------------------ #
    def _insert(self, object_index: int) -> None:
        leaf = self._choose_leaf(self._root, object_index)
        distance_to_parent = 0.0
        if leaf.parent_entry is not None:
            distance_to_parent = self._dist(object_index, leaf.parent_entry.pivot_index)
            self._expand_radii(leaf, distance_to_parent)
        leaf.entries.append(_LeafEntry(object_index=object_index, distance_to_parent=distance_to_parent))
        if len(leaf.entries) > self._capacity:
            self._split(leaf)

    def _choose_leaf(self, node: _Node, object_index: int) -> _Node:
        if node.is_leaf:
            return node
        # Prefer a child whose covering ball already contains the object;
        # among those, the one with the closest pivot.  Otherwise choose the
        # child whose radius grows the least (the heuristic of the original
        # M-tree insertion algorithm).
        best_inside: tuple[float, _RoutingEntry] | None = None
        best_outside: tuple[float, _RoutingEntry] | None = None
        for entry in node.entries:
            distance = self._dist(object_index, entry.pivot_index)
            if distance <= entry.covering_radius:
                if best_inside is None or distance < best_inside[0]:
                    best_inside = (distance, entry)
            else:
                growth = distance - entry.covering_radius
                if best_outside is None or growth < best_outside[0]:
                    best_outside = (growth, entry)
        chosen = best_inside[1] if best_inside is not None else best_outside[1]
        return self._choose_leaf(chosen.child, object_index)

    def _expand_radii(self, node: _Node, distance_to_parent: float) -> None:
        """Grow covering radii on the path to the root so they stay sound."""
        entry = node.parent_entry
        current = node
        required = distance_to_parent
        while entry is not None:
            if required > entry.covering_radius:
                entry.covering_radius = required
            current = current.parent
            if current is None or current.parent_entry is None:
                break
            # The covering radius of the grandparent pivot must reach the new
            # object too; bound it via the triangle inequality.
            required = entry.distance_to_parent + required
            entry = current.parent_entry

    # ------------------------------------------------------------------ #
    # Splitting
    # ------------------------------------------------------------------ #
    def _split(self, node: _Node) -> None:
        entries = list(node.entries)
        first_pivot, second_pivot = self._promote(entries)
        first_node = _Node(is_leaf=node.is_leaf)
        second_node = _Node(is_leaf=node.is_leaf)
        first_entries, second_entries, first_radius, second_radius = self._partition(
            entries, first_pivot, second_pivot, node.is_leaf
        )
        first_node.entries = first_entries
        second_node.entries = second_entries

        if node.parent is None:
            # The root splits: create a new root one level up.
            new_root = _Node(is_leaf=False)
            first_routing = _RoutingEntry(
                pivot_index=first_pivot, covering_radius=first_radius, distance_to_parent=0.0, child=first_node
            )
            second_routing = _RoutingEntry(
                pivot_index=second_pivot, covering_radius=second_radius, distance_to_parent=0.0, child=second_node
            )
            new_root.entries = [first_routing, second_routing]
            for child_node, routing in ((first_node, first_routing), (second_node, second_routing)):
                child_node.parent = new_root
                child_node.parent_entry = routing
            self._root = new_root
            self._reassign_children(first_node)
            self._reassign_children(second_node)
            return

        parent = node.parent
        old_entry = node.parent_entry
        parent.entries.remove(old_entry)
        grandparent_pivot = parent.parent_entry.pivot_index if parent.parent_entry is not None else None

        def _distance_to_grandparent(pivot: int) -> float:
            if grandparent_pivot is None:
                return 0.0
            return self._dist(pivot, grandparent_pivot)

        first_routing = _RoutingEntry(
            pivot_index=first_pivot,
            covering_radius=first_radius,
            distance_to_parent=_distance_to_grandparent(first_pivot),
            child=first_node,
        )
        second_routing = _RoutingEntry(
            pivot_index=second_pivot,
            covering_radius=second_radius,
            distance_to_parent=_distance_to_grandparent(second_pivot),
            child=second_node,
        )
        parent.entries.extend([first_routing, second_routing])
        for child_node, routing in ((first_node, first_routing), (second_node, second_routing)):
            child_node.parent = parent
            child_node.parent_entry = routing
        self._reassign_children(first_node)
        self._reassign_children(second_node)

        # Keep ancestor radii sound: the new pivots' balls must stay inside
        # their parents' balls.
        for routing in (first_routing, second_routing):
            if parent.parent_entry is not None:
                needed = routing.distance_to_parent + routing.covering_radius
                if needed > parent.parent_entry.covering_radius:
                    self._expand_radii(parent, needed)

        if len(parent.entries) > self._capacity:
            self._split(parent)

    def _reassign_children(self, node: _Node) -> None:
        if node.is_leaf:
            return
        for entry in node.entries:
            entry.child.parent = node
            entry.child.parent_entry = entry

    def _promote(self, entries: list) -> tuple[int, int]:
        """Pick two pivot objects for the split (random, distinct)."""
        candidates = [self._entry_object(entry) for entry in entries]
        first, second = self._rng.choice(len(candidates), size=2, replace=False)
        return candidates[int(first)], candidates[int(second)]

    @staticmethod
    def _entry_object(entry) -> int:
        return entry.object_index if isinstance(entry, _LeafEntry) else entry.pivot_index

    def _partition(
        self, entries: list, first_pivot: int, second_pivot: int, is_leaf: bool
    ) -> tuple[list, list, float, float]:
        first_entries: list = []
        second_entries: list = []
        first_radius = 0.0
        second_radius = 0.0
        for entry in entries:
            obj = self._entry_object(entry)
            to_first = self._dist(obj, first_pivot)
            to_second = self._dist(obj, second_pivot)
            child_radius = 0.0 if is_leaf else entry.covering_radius
            if to_first <= to_second:
                entry.distance_to_parent = to_first
                first_entries.append(entry)
                first_radius = max(first_radius, to_first + child_radius)
            else:
                entry.distance_to_parent = to_second
                second_entries.append(entry)
                second_radius = max(second_radius, to_second + child_radius)
        return first_entries, second_entries, first_radius, second_radius

    # ------------------------------------------------------------------ #
    # k-NN search
    # ------------------------------------------------------------------ #
    def search(self, query_point, k: int, distance: DistanceFunction | None = None) -> ResultSet:
        """Return the ``k`` nearest neighbours of ``query_point``.

        ``distance`` may be omitted; passing a different metric than the one
        the tree was built for raises, because the pruning bounds would not
        hold.  Ties on distance are broken by ascending collection index,
        matching the linear scan.
        """
        k = check_dimension(k, "k")
        if distance is not None and distance is not self._distance:
            raise ValidationError("an M-tree can only be searched with the metric it was built for")
        query_point = self._collection.validate_query_point(query_point)
        k = min(k, self._collection.size)

        counter = itertools.count()
        # Priority queue of (lower bound, tiebreak, node, distance from query to parent pivot).
        pending: list[tuple[float, int, _Node, float | None]] = [(0.0, next(counter), self._root, None)]
        best = NeighborHeap(k)

        while pending:
            lower_bound, _, node, query_parent_distance = heapq.heappop(pending)
            if lower_bound > best.bound():
                break
            if node.is_leaf:
                for entry in node.entries:
                    # Pruning rule: |d(q, parent) - d(o, parent)| > bound
                    # implies d(q, o) > bound, so the object can be skipped
                    # without computing its distance.
                    if (
                        query_parent_distance is not None
                        and abs(query_parent_distance - entry.distance_to_parent) > best.bound()
                    ):
                        continue
                    dist = self._dist_to_point(query_point, entry.object_index)
                    best.offer(dist, entry.object_index)
            else:
                for entry in node.entries:
                    if (
                        query_parent_distance is not None
                        and abs(query_parent_distance - entry.distance_to_parent)
                        > best.bound() + entry.covering_radius
                    ):
                        continue
                    pivot_distance = self._dist_to_point(query_point, entry.pivot_index)
                    child_bound = max(pivot_distance - entry.covering_radius, 0.0)
                    if child_bound <= best.bound():
                        heapq.heappush(pending, (child_bound, next(counter), entry.child, pivot_distance))

        return best.result_set()

    def search_batch(
        self, query_points, k: int, distance: DistanceFunction | None = None
    ) -> list[ResultSet]:
        """Answer every query row with one shared tree traversal.

        Instead of running the priority-queue search once per query (the
        looped protocol default), the whole batch walks the tree together in
        one depth-first pass: at every node both pruning rules of the
        original algorithm — the parent-distance rule
        ``|d(q, parent) - d(entry, parent)| > bound (+ r)`` and the
        covering-ball rule ``d(q, pivot) - r > bound`` — are evaluated for
        all still-active queries at once, and the pivot distances of the
        survivors are computed in a single vectorised
        :meth:`_pivot_distances` call.  Each query keeps its own
        :class:`~repro.database.index.NeighborHeap`, so exactly the entries
        its own bounds cannot exclude are offered to it.

        The result is byte-identical to ``[search(q, k) for q in
        query_points]`` (the KNNIndex batch contract): both pruning rules
        are conservative, the heap's neighbour set is independent of offer
        order, and both paths evaluate the metric through
        :meth:`_pivot_distances` on identical operands.  Only the traversal
        *order* differs (depth-first entry order instead of best-first),
        which can change how many distance computations pruning saves — not
        what is returned.
        """
        k = check_dimension(k, "k")
        if distance is not None and distance is not self._distance:
            raise ValidationError("an M-tree can only be searched with the metric it was built for")
        query_points = np.ascontiguousarray(
            as_float_matrix(query_points, name="query_points", shape=(None, self._collection.dimension))
        )
        n_queries = query_points.shape[0]
        k = min(k, self._collection.size)
        heaps = [NeighborHeap(k) for _ in range(n_queries)]
        if n_queries:
            self._search_node_batch(
                self._root, query_points, np.arange(n_queries, dtype=np.intp), None, heaps
            )
        return [heap.result_set() for heap in heaps]

    def _bounds_of(self, active: np.ndarray, heaps: "list[NeighborHeap]") -> np.ndarray:
        """Current k-th-best bounds of the active queries, as an array."""
        return np.fromiter(
            (heaps[query_index].bound() for query_index in active),
            dtype=np.float64,
            count=active.size,
        )

    def _search_node_batch(
        self,
        node: _Node,
        query_points: np.ndarray,
        active: np.ndarray,
        parent_distances: "np.ndarray | None",
        heaps: "list[NeighborHeap]",
    ) -> None:
        """Visit one node for every query in ``active`` at once.

        ``parent_distances`` holds each active query's distance to the
        node's parent pivot (``None`` at the root), enabling the
        parent-distance pruning rule without recomputation — the batched
        form of the ``query_parent_distance`` the single-query search
        carries through its priority queue.  Bounds are re-read before
        every entry because earlier offers tighten them, exactly as the
        sequential scan over a node's entries does.
        """
        if node.is_leaf:
            for entry in node.entries:
                if parent_distances is None:
                    candidates = np.arange(active.size, dtype=np.intp)
                else:
                    margins = np.abs(parent_distances - entry.distance_to_parent)
                    candidates = np.flatnonzero(margins <= self._bounds_of(active, heaps))
                if candidates.size == 0:
                    continue
                distances = self._pivot_distances(
                    entry.object_index, query_points[active[candidates]]
                )
                for query_index, dist in zip(active[candidates], distances):
                    heaps[query_index].offer(float(dist), entry.object_index)
            return

        # Two phases, mirroring the best-first order locally: first evaluate
        # every entry's pruning rules and pivot distances, then descend the
        # children in ascending lower-bound order (closest subtrees first),
        # re-checking each query's bound at descent time — earlier descents
        # tighten the bounds that prune the later ones, which is the batch
        # counterpart of the priority queue of the single-query search.
        descents: list[tuple[float, int, _RoutingEntry, np.ndarray, np.ndarray]] = []
        for position, entry in enumerate(node.entries):
            if parent_distances is None:
                keep = np.arange(active.size, dtype=np.intp)
            else:
                margins = np.abs(parent_distances - entry.distance_to_parent)
                keep = np.flatnonzero(
                    margins <= self._bounds_of(active, heaps) + entry.covering_radius
                )
            if keep.size == 0:
                continue
            sub_active = active[keep]
            pivot_distances = self._pivot_distances(entry.pivot_index, query_points[sub_active])
            child_bounds = np.maximum(pivot_distances - entry.covering_radius, 0.0)
            descents.append(
                (float(child_bounds.min()), position, entry, sub_active, pivot_distances)
            )
        descents.sort(key=lambda item: item[:2])
        for _, _, entry, sub_active, pivot_distances in descents:
            child_bounds = np.maximum(pivot_distances - entry.covering_radius, 0.0)
            descend = np.flatnonzero(child_bounds <= self._bounds_of(sub_active, heaps))
            if descend.size:
                self._search_node_batch(
                    entry.child,
                    query_points,
                    sub_active[descend],
                    pivot_distances[descend],
                    heaps,
                )

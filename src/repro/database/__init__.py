"""Similarity-database substrate.

The paper treats the underlying database as a k-nearest-neighbour service
over high-dimensional feature vectors, typically implemented with a metric /
spatial index (it cites X-trees and M-trees).  This subpackage provides that
service:

* :mod:`repro.database.collection` — the feature collection (vectors plus
  category labels),
* :mod:`repro.database.query` — query and result value objects, including
  the validated :class:`QueryBatch` every ``execute`` accepts,
* :mod:`repro.database.index` — the :class:`KNNIndex` protocol (single and
  batch search, capability negotiation, deterministic tie-breaking),
* :mod:`repro.database.knn` — exhaustive-scan k-NN (the reference engine),
* :mod:`repro.database.vptree` — a vantage-point tree metric index,
* :mod:`repro.database.mtree` — an M-tree metric index (Ciaccia et al.),
* :mod:`repro.database.engine` — the retrieval engine tying a collection, an
  index and a parameterised distance function together; its query surface
  (thin ``search*`` wrappers over one ``execute(batch)``) is defined once
  and shared with the sharded engine,
* :mod:`repro.database.sharding` — the concurrency layer, and the one
  place work is spread over workers: deterministic index-range sharding
  (:class:`ShardedCollection`), a thread :class:`WorkerPool`, a
  shared-memory corpus host (:class:`SharedCorpus`), and the
  :class:`ShardedEngine` fanning queries out to per-shard engines — in
  threads or in long-lived worker processes — and merging the per-shard
  top-k exactly,
* :mod:`repro.database.segments` — the mutability layer: a
  :class:`LiveCollection` composes an immutable indexed base segment with
  append-only delta segments and tombstones (inserts/deletes in O(delta),
  queries byte-identical to a frozen rebuild at every snapshot, stable ids
  across compactions), and a background :class:`Compactor` folds deltas
  into a new base off the hot path under an atomic epoch swap.

The metric trees and the shard layer are imported by module path
(``from repro.database.sharding import ShardedEngine``): the package does
not load them, so a process that serves a plain scan never does.
"""

from repro.database.budget import Budget, Coverage
from repro.database.collection import CorpusWorkspace, FeatureCollection
from repro.database.engine import RetrievalEngine
from repro.database.index import KNNIndex, NeighborHeap, k_smallest
from repro.database.knn import LinearScanIndex
from repro.database.query import QueryBatch, ResultItem, ResultSet
from repro.database.segments import Compactor, LiveCollection, LiveSnapshot, SegmentUnit

__all__ = [
    "Budget",
    "Compactor",
    "Coverage",
    "CorpusWorkspace",
    "FeatureCollection",
    "LiveCollection",
    "LiveSnapshot",
    "SegmentUnit",
    "RetrievalEngine",
    "KNNIndex",
    "NeighborHeap",
    "k_smallest",
    "LinearScanIndex",
    "QueryBatch",
    "ResultItem",
    "ResultSet",
]

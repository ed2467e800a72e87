"""Property-based tests for the live mutable corpus (satellite of PR 9).

Hypothesis drives random interleavings of insert / delete / query / compact
operations against a :class:`~repro.database.segments.LiveCollection` and
asserts, **at every query point of the interleaving**, byte-identity to
freezing the alive rows into a plain collection and querying that — the
same contract ``tests/test_live_collection.py`` pins on hand-picked cases,
here across generated operation sequences and distance families.  Duplicated rows are injected aggressively so cross-segment
distance ties (broken by ascending stable id) are common, not rare.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database.collection import FeatureCollection
from repro.database.engine import RetrievalEngine
from repro.database.segments import LiveCollection
from repro.distances.minkowski import MinkowskiDistance
from repro.distances.weighted_euclidean import WeightedEuclideanDistance

DIMENSION = 4


def _distance(kind: int, rng: np.random.Generator):
    if kind == 1:
        return WeightedEuclideanDistance(DIMENSION, weights=rng.random(DIMENSION) + 0.1)
    if kind == 2:
        return MinkowskiDistance(DIMENSION, order=1.0, weights=rng.random(DIMENSION) + 0.1)
    return None  # the engine default


# One step of an interleaving: (op, payload).  Ops are drawn with weights —
# queries dominate (they are the assertion), mutations interleave, compact
# is rare but present.
_STEP = st.one_of(
    st.tuples(st.just("query"), st.integers(min_value=1, max_value=12)),
    st.tuples(st.just("insert"), st.integers(min_value=1, max_value=5)),
    st.tuples(st.just("insert_dup"), st.integers(min_value=0, max_value=10_000)),
    st.tuples(st.just("delete"), st.integers(min_value=0, max_value=10_000)),
    st.tuples(st.just("compact"), st.just(0)),
    st.tuples(st.just("query"), st.integers(min_value=1, max_value=12)),
)


def _alive_ids(live: LiveCollection) -> np.ndarray:
    ids = []
    for segment in live.snapshot().segments:
        unit_ids = np.asarray(segment.unit.ids)
        ids.append(unit_ids if segment.alive is None else unit_ids[segment.alive])
    return np.sort(np.concatenate(ids))


def _assert_query_point_identical(live, engine, distance, rng, k):
    """One query point of the interleaving: live vs frozen rebuild, in bits."""
    ids = _alive_ids(live)
    frozen = FeatureCollection(np.ascontiguousarray(live.vectors[ids]))
    reference = RetrievalEngine(frozen, default_distance=engine.default_distance)
    queries = rng.random((3, DIMENSION))
    queries[0] = live.vectors[int(ids[rng.integers(ids.size)])]  # exact hit
    live_results = engine.search_batch(queries, k, distance)
    frozen_results = reference.search_batch(queries, k, distance)
    for live_result, frozen_result in zip(live_results, frozen_results):
        np.testing.assert_array_equal(live_result.indices(), ids[frozen_result.indices()])
        assert live_result.distances().tobytes() == frozen_result.distances().tobytes()


class TestInterleavingProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=2),
        st.lists(_STEP, min_size=1, max_size=14),
    )
    def test_any_interleaving_matches_a_frozen_rebuild(self, seed, distance_kind, steps):
        rng = np.random.default_rng(seed)
        live = LiveCollection(rng.random((10, DIMENSION)))
        engine = RetrievalEngine(live)
        distance = _distance(distance_kind, np.random.default_rng(seed + 1))
        for op, payload in steps:
            if op == "insert":
                live.insert(rng.random((payload, DIMENSION)))
            elif op == "insert_dup":
                # Re-insert a resident row verbatim: a guaranteed exact
                # distance tie across segments.
                source = int(payload % live.vectors.shape[0])
                live.insert(live.vector(source)[None, :])
            elif op == "delete":
                ids = _alive_ids(live)
                if ids.size > 1:
                    live.delete([int(ids[payload % ids.size])])
            elif op == "compact":
                live.compact()
            else:
                _assert_query_point_identical(live, engine, distance, rng, payload)
        # Always close the interleaving with a query and a post-compaction
        # query, so every generated sequence ends on the assertion.
        _assert_query_point_identical(live, engine, distance, rng, 5)
        live.compact()
        _assert_query_point_identical(live, engine, distance, rng, 5)

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=8),
    )
    def test_stable_ids_are_permanent_names(self, seed, probes):
        """Whatever mutates around it, id -> vector never changes."""
        rng = np.random.default_rng(seed)
        live = LiveCollection(rng.random((8, DIMENSION)))
        recorded = {i: live.vector(i) for i in range(8)}
        for round_id, probe in enumerate(probes):
            new_ids = live.insert(rng.random((1 + probe % 3, DIMENSION)))
            for new_id in new_ids:
                recorded[int(new_id)] = live.vector(int(new_id))
            ids = _alive_ids(live)
            if ids.size > 1:
                live.delete([int(ids[probe % ids.size])])
            if round_id % 3 == 2:
                live.compact()
            for known_id, vector in recorded.items():
                np.testing.assert_array_equal(live.vector(known_id), vector)
                np.testing.assert_array_equal(live.vectors[known_id], vector)

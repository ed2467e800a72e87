"""Tests for repro.core.bypass."""

import numpy as np
import pytest

from repro.core.bootstrap import bypass_for_histograms
from repro.core.bypass import FeedbackBypass
from repro.core.oqp import OptimalQueryParameters
from repro.geometry.bounding import unit_cube_root_vertices
from repro.utils.validation import ValidationError


@pytest.fixture()
def bypass() -> FeedbackBypass:
    return FeedbackBypass(unit_cube_root_vertices(3, margin=1e-9), 3, epsilon=0.0)


class TestConstruction:
    def test_dimensions(self, bypass):
        assert bypass.query_dimension == 3
        assert bypass.weight_dimension == 3
        assert bypass.tree.value_dimension == 6

    def test_custom_weight_dimension(self):
        instance = FeedbackBypass(unit_cube_root_vertices(3), 3, weight_dimension=5)
        assert instance.weight_dimension == 5
        assert instance.tree.value_dimension == 8

    def test_epsilon_is_exposed(self):
        instance = FeedbackBypass(unit_cube_root_vertices(2), 2, epsilon=0.25)
        assert instance.epsilon == pytest.approx(0.25)

    def test_from_tree_roundtrip(self, bypass):
        rebuilt = FeedbackBypass.from_tree(bypass.tree, 3)
        assert rebuilt.query_dimension == 3
        assert rebuilt.weight_dimension == 3
        probe = np.full(3, 0.2)
        np.testing.assert_allclose(rebuilt.mopt(probe).to_vector(), bypass.mopt(probe).to_vector())

    def test_from_tree_dimension_mismatch(self, bypass):
        with pytest.raises(ValidationError):
            FeedbackBypass.from_tree(bypass.tree, 5)


class TestMopt:
    def test_untrained_prediction_is_default(self, bypass):
        prediction = bypass.mopt([0.2, 0.3, 0.4])
        assert prediction.is_default()

    def test_prediction_for_stored_query_is_exact(self, bypass):
        stored = OptimalQueryParameters(
            delta=np.array([0.05, -0.05, 0.0]), weights=np.array([2.0, 0.5, 1.0])
        )
        bypass.insert([0.3, 0.3, 0.3], stored)
        prediction = bypass.mopt([0.3, 0.3, 0.3])
        np.testing.assert_allclose(prediction.delta, stored.delta, atol=1e-9)
        np.testing.assert_allclose(prediction.weights, stored.weights, atol=1e-9)

    def test_prediction_for_nearby_query_moves_towards_stored(self, bypass):
        stored = OptimalQueryParameters(delta=np.zeros(3), weights=np.array([5.0, 1.0, 1.0]))
        bypass.insert([0.5, 0.5, 0.5], stored)
        near = bypass.mopt([0.45, 0.45, 0.45])
        far = bypass.mopt([0.05, 0.05, 0.05])
        assert near.weights[0] > far.weights[0]

    def test_prediction_weights_never_negative(self, bypass):
        bypass.insert(
            [0.2, 0.2, 0.2],
            OptimalQueryParameters(delta=np.zeros(3), weights=np.array([0.0, 0.0, 3.0])),
        )
        rng = np.random.default_rng(0)
        for _ in range(20):
            prediction = bypass.mopt(rng.random(3) * 0.9)
            assert np.all(prediction.weights >= 0.0)

    def test_query_dimension_validated(self, bypass):
        with pytest.raises(ValidationError):
            bypass.mopt([0.1, 0.2])


class TestInsert:
    def test_insert_counts_stored_queries(self, bypass):
        parameters = OptimalQueryParameters(delta=np.full(3, 0.1), weights=np.full(3, 2.0))
        outcome = bypass.insert([0.4, 0.4, 0.4], parameters)
        assert outcome.stored
        assert bypass.n_stored_queries == 1

    def test_epsilon_skips_uninformative_parameters(self):
        instance = FeedbackBypass(unit_cube_root_vertices(3, margin=1e-6), 3, epsilon=0.5)
        nearly_default = OptimalQueryParameters(
            delta=np.full(3, 0.01), weights=np.full(3, 1.01)
        )
        outcome = instance.insert([0.3, 0.3, 0.3], nearly_default)
        assert outcome.action == "skipped"
        assert instance.n_stored_queries == 0

    def test_wrong_delta_dimension_rejected(self, bypass):
        bad = OptimalQueryParameters(delta=np.zeros(2), weights=np.ones(3))
        with pytest.raises(ValidationError):
            bypass.insert([0.1, 0.1, 0.1], bad)

    def test_wrong_weight_dimension_rejected(self, bypass):
        bad = OptimalQueryParameters(delta=np.zeros(3), weights=np.ones(5))
        with pytest.raises(ValidationError):
            bypass.insert([0.1, 0.1, 0.1], bad)

    def test_statistics_snapshot(self, bypass):
        bypass.insert(
            [0.4, 0.4, 0.4],
            OptimalQueryParameters(delta=np.full(3, 0.2), weights=np.ones(3)),
        )
        bypass.mopt([0.1, 0.1, 0.1])
        stats = bypass.statistics()
        assert stats["n_stored_queries"] == 1.0
        assert stats["n_predictions"] >= 2.0
        assert stats["depth"] >= 1.0


class TestHistogramBootstrap:
    def test_histogram_bypass_covers_all_histograms(self):
        instance = bypass_for_histograms(8, epsilon=0.0)
        assert instance.query_dimension == 7
        rng = np.random.default_rng(1)
        for _ in range(50):
            histogram = rng.dirichlet(np.ones(8))
            assert instance.tree.contains(histogram[:-1])

    def test_paper_dimensions(self):
        # Example 1: 32 bins -> M_opt maps R^31 to R^62.
        instance = bypass_for_histograms(32)
        assert instance.query_dimension == 31
        assert instance.tree.value_dimension == 62

"""Batch prediction on the Simplex Tree and the FeedbackBypass facade."""

import numpy as np
import pytest

from repro.core.bypass import FeedbackBypass
from repro.core.oqp import OptimalQueryParameters
from repro.core.simplex_tree import SimplexTree
from repro.geometry.bounding import unit_cube_root_vertices
from repro.utils.validation import ValidationError

DIMENSION = 3
VALUE_DIMENSION = 4


@pytest.fixture()
def tree(rng) -> SimplexTree:
    tree = SimplexTree(
        unit_cube_root_vertices(DIMENSION), value_dimension=VALUE_DIMENSION, epsilon=0.0
    )
    for _ in range(25):
        point = rng.random(DIMENSION) * 0.2
        if tree.contains(point):
            tree.insert(point, rng.random(VALUE_DIMENSION))
    assert tree.n_stored_points > 5
    return tree


class TestPredictBatch:
    def test_equals_mapped_predict(self, tree, rng):
        points = rng.random((40, DIMENSION)) * 0.25
        batch = tree.predict_batch(points)
        for row, point in zip(batch, points):
            np.testing.assert_array_equal(row, tree.predict(point))

    def test_outside_points_get_default(self, tree):
        outside = np.full((2, DIMENSION), 2.0)  # far outside the unit simplex
        batch = tree.predict_batch(outside)
        np.testing.assert_array_equal(batch[0], tree.default_value)
        np.testing.assert_array_equal(batch[1], tree.default_value)

    def test_statistics_match_mapped_predict(self, tree, rng):
        points = rng.random((15, DIMENSION)) * 0.25
        before = dict(tree.statistics.snapshot())
        tree.predict_batch(points)
        after_batch = dict(tree.statistics.snapshot())

        # Replaying the same points through predict() must move the counters
        # by exactly the same amounts.
        deltas = {
            name: after_batch[name] - before[name]
            for name in ("n_lookups", "n_predictions", "total_traversed")
            if name in before
        }
        before_replay = dict(tree.statistics.snapshot())
        for point in points:
            tree.predict(point)
        after_replay = dict(tree.statistics.snapshot())
        for name, delta in deltas.items():
            assert after_replay[name] - before_replay[name] == delta

    def test_validates_dimension(self, tree, rng):
        with pytest.raises(ValidationError):
            tree.predict_batch(rng.random((4, DIMENSION + 1)))


class TestBypassBatch:
    @pytest.fixture()
    def trained_bypass(self, rng):
        bypass = FeedbackBypass(unit_cube_root_vertices(DIMENSION, margin=1e-6), DIMENSION, epsilon=0.0)
        for _ in range(15):
            point = rng.random(DIMENSION) * 0.2
            if bypass.tree.contains(point):
                parameters = OptimalQueryParameters(
                    delta=rng.normal(0.0, 0.01, DIMENSION), weights=rng.random(DIMENSION) + 0.5
                )
                bypass.insert(point, parameters)
        assert bypass.n_stored_queries > 3
        return bypass

    def test_mopt_batch_equals_mapped_mopt(self, trained_bypass, rng):
        points = rng.random((20, DIMENSION)) * 0.25
        batch = trained_bypass.mopt_batch(points)
        for prediction, point in zip(batch, points):
            reference = trained_bypass.mopt(point)
            np.testing.assert_array_equal(prediction.delta, reference.delta)
            np.testing.assert_array_equal(prediction.weights, reference.weights)

    def test_predict_for_engine_batch_shapes(self, trained_bypass, rng):
        points = rng.random((8, DIMENSION)) * 0.25
        predictions, deltas, weights = trained_bypass.predict_for_engine_batch(points)
        assert len(predictions) == 8
        assert deltas.shape == (8, DIMENSION)
        assert weights.shape == (8, DIMENSION)
        for row, prediction in enumerate(predictions):
            np.testing.assert_array_equal(deltas[row], prediction.delta)
            np.testing.assert_array_equal(weights[row], prediction.weights)

    def test_insert_batch_matches_sequential_inserts(self, rng):
        points = rng.random((6, DIMENSION)) * 0.2
        parameter_list = [
            OptimalQueryParameters(
                delta=rng.normal(0.0, 0.01, DIMENSION), weights=rng.random(DIMENSION) + 0.5
            )
            for _ in range(len(points))
        ]
        batched = FeedbackBypass(unit_cube_root_vertices(DIMENSION, margin=1e-6), DIMENSION, epsilon=0.0)
        sequential = FeedbackBypass(unit_cube_root_vertices(DIMENSION, margin=1e-6), DIMENSION, epsilon=0.0)
        outcomes = batched.insert_batch(points, parameter_list)
        for point, parameters in zip(points, parameter_list):
            sequential.insert(point, parameters)
        assert [outcome.action for outcome in outcomes] == [
            entry[2] for entry in sequential.tree.journal
        ]
        assert batched.n_stored_queries == sequential.n_stored_queries
        probe = rng.random(DIMENSION) * 0.2
        np.testing.assert_array_equal(
            batched.mopt(probe).to_vector(), sequential.mopt(probe).to_vector()
        )

    def test_insert_batch_validates_alignment(self, rng):
        bypass = FeedbackBypass(unit_cube_root_vertices(DIMENSION, margin=1e-6), DIMENSION)
        with pytest.raises(ValidationError):
            bypass.insert_batch(rng.random((3, DIMENSION)) * 0.1, [])

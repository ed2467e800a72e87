"""Tests for repro.core.simplex_tree."""

import numpy as np
import pytest

from repro.core.analysis import iter_nodes
from repro.core.simplex_tree import SimplexTree
from repro.geometry.bounding import standard_simplex_vertices, unit_cube_root_vertices
from repro.utils.validation import ValidationError


def make_tree(dimension=2, value_dimension=3, epsilon=0.0, default=None):
    return SimplexTree(
        unit_cube_root_vertices(dimension, margin=1e-9),
        value_dimension=value_dimension,
        default_value=default,
        epsilon=epsilon,
    )


class TestEmptyTree:
    def test_initial_structure(self):
        tree = make_tree()
        assert tree.dimension == 2
        assert tree.value_dimension == 3
        assert tree.n_stored_points == 0
        assert tree.depth() == 0
        assert tree.leaf_count() == 1

    def test_empty_tree_predicts_default_everywhere(self):
        default = np.array([1.0, 2.0, 3.0])
        tree = make_tree(default=default)
        for point in ([0.1, 0.1], [0.9, 0.2], [0.5, 0.5]):
            np.testing.assert_allclose(tree.predict(point), default, atol=1e-9)

    def test_default_value_defaults_to_zero(self):
        tree = make_tree()
        np.testing.assert_allclose(tree.predict([0.5, 0.5]), np.zeros(3))

    def test_prediction_outside_root_returns_default(self):
        default = np.array([5.0, 5.0, 5.0])
        tree = make_tree(default=default)
        np.testing.assert_allclose(tree.predict([50.0, 50.0]), default)

    def test_contains(self):
        tree = make_tree()
        assert tree.contains([0.5, 0.5])
        assert not tree.contains([10.0, 10.0])


class TestInsert:
    def test_insert_stores_point(self):
        tree = make_tree()
        outcome = tree.insert([0.3, 0.4], [1.0, 2.0, 3.0])
        assert outcome.action == "inserted"
        assert outcome.stored
        assert tree.n_stored_points == 1

    def test_prediction_at_stored_point_is_exact(self):
        tree = make_tree()
        value = np.array([1.5, -0.5, 2.0])
        tree.insert([0.3, 0.4], value)
        np.testing.assert_allclose(tree.predict([0.3, 0.4]), value, atol=1e-9)

    def test_predictions_interpolate_between_points(self):
        tree = make_tree(value_dimension=1, default=[0.0])
        tree.insert([0.5, 0.5], [10.0])
        # Moving from a root corner towards the stored point, the prediction
        # grows monotonically from the default towards the stored value.
        predictions = [float(tree.predict([t * 0.5, t * 0.5])[0]) for t in (0.2, 0.5, 0.8, 1.0)]
        assert all(b >= a - 1e-9 for a, b in zip(predictions, predictions[1:]))
        assert predictions[-1] == pytest.approx(10.0)

    def test_insert_same_point_updates_payload(self):
        tree = make_tree()
        tree.insert([0.3, 0.4], [1.0, 1.0, 1.0])
        outcome = tree.insert([0.3, 0.4], [2.0, 2.0, 2.0])
        assert outcome.action == "updated"
        assert tree.n_stored_points == 1
        np.testing.assert_allclose(tree.predict([0.3, 0.4]), [2.0, 2.0, 2.0], atol=1e-9)

    def test_insert_outside_root_rejected(self):
        tree = make_tree()
        with pytest.raises(ValidationError):
            tree.insert([10.0, 10.0], [1.0, 1.0, 1.0])

    def test_insert_wrong_value_dimension_rejected(self):
        tree = make_tree()
        with pytest.raises(ValidationError):
            tree.insert([0.3, 0.3], [1.0, 1.0])

    def test_journal_records_operations(self):
        tree = make_tree()
        tree.insert([0.3, 0.4], [1.0, 1.0, 1.0])
        tree.insert([0.3, 0.4], [2.0, 2.0, 2.0])
        journal = tree.journal
        assert [entry[2] for entry in journal] == ["inserted", "updated"]


class TestEpsilonGate:
    def test_small_error_is_skipped(self):
        tree = make_tree(epsilon=0.5, default=[0.0, 0.0, 0.0])
        outcome = tree.insert([0.4, 0.4], [0.1, 0.1, 0.1])
        assert outcome.action == "skipped"
        assert not outcome.stored
        assert tree.n_stored_points == 0

    def test_large_error_is_inserted(self):
        tree = make_tree(epsilon=0.5, default=[0.0, 0.0, 0.0])
        outcome = tree.insert([0.4, 0.4], [2.0, 0.0, 0.0])
        assert outcome.action == "inserted"

    def test_force_overrides_epsilon(self):
        tree = make_tree(epsilon=10.0)
        outcome = tree.insert([0.4, 0.4], [0.1, 0.1, 0.1], force=True)
        assert outcome.action == "inserted"

    def test_prediction_error_reported(self):
        tree = make_tree(default=[0.0, 0.0, 0.0])
        outcome = tree.insert([0.4, 0.4], [0.0, 0.0, 3.0])
        assert outcome.prediction_error == pytest.approx(3.0)

    def test_constant_mapping_stores_nothing(self):
        # If the optimal parameters always equal the defaults, no point is
        # ever stored (the limit case discussed in Section 4.2).
        default = np.array([1.0, 1.0, 1.0])
        tree = make_tree(epsilon=0.05, default=default)
        rng = np.random.default_rng(0)
        for point in rng.random((30, 2)) * 0.9:
            tree.insert(point, default + rng.normal(scale=0.001, size=3))
        assert tree.n_stored_points == 0

    def test_larger_epsilon_stores_fewer_points(self):
        rng = np.random.default_rng(1)
        points = rng.random((60, 2)) * 0.9 + 0.05
        values = np.column_stack([np.sin(points[:, 0] * 6), points[:, 1], points.sum(axis=1)])
        sizes = {}
        for epsilon in (0.01, 0.2, 1.0):
            tree = make_tree(epsilon=epsilon)
            for point, value in zip(points, values):
                tree.insert(point, value)
            sizes[epsilon] = tree.n_stored_points
        assert sizes[0.01] >= sizes[0.2] >= sizes[1.0]


class TestLookupAndStatistics:
    def test_lookup_returns_containing_leaf(self):
        tree = make_tree()
        rng = np.random.default_rng(2)
        for point in rng.random((15, 2)) * 0.9 + 0.05:
            tree.insert(point, rng.random(3))
        for probe in rng.random((30, 2)) * 0.9 + 0.05:
            leaf, visited = tree.lookup(probe)
            assert leaf.simplex.contains(probe, tolerance=1e-9)
            assert visited >= 1

    def test_statistics_counters(self):
        tree = make_tree()
        tree.predict([0.5, 0.5])
        tree.insert([0.4, 0.4], [1.0, 1.0, 1.0])
        tree.insert([0.4, 0.4], [1.0, 1.0, 2.0])
        snapshot = tree.statistics.snapshot()
        assert snapshot["n_predictions"] >= 3  # one explicit + one per insert
        assert snapshot["n_inserts"] == 1
        assert snapshot["n_updates"] == 1

    def test_traversal_profile(self):
        tree = make_tree()
        rng = np.random.default_rng(3)
        for point in rng.random((20, 2)) * 0.9 + 0.05:
            tree.insert(point, rng.random(3))
        probes = rng.random((40, 2)) * 0.9 + 0.05
        average, depth = tree.traversal_profile(probes)
        assert 1.0 <= average <= depth + 1
        assert depth == tree.depth()

    def test_traversal_profile_does_not_change_counters(self):
        tree = make_tree()
        tree.insert([0.4, 0.4], [1.0, 1.0, 1.0])
        before = tree.statistics.snapshot()
        tree.traversal_profile(np.array([[0.2, 0.2], [0.6, 0.3]]))
        after = tree.statistics.snapshot()
        assert before["n_lookups"] == after["n_lookups"]

    def test_constant_time_measurements_equal_a_full_walk_after_every_insert(self):
        tree = make_tree()
        rng = np.random.default_rng(11)
        pool = rng.random((25, 2)) * 0.9 + 0.05
        for _ in range(60):  # new points, and repeats that only update a payload
            tree.insert(pool[rng.integers(0, len(pool))], rng.random(3))
            depths = [node.depth for node in iter_nodes(tree) if node.is_leaf]
            assert tree.leaf_count() == len(depths)
            assert tree.depth() == max(depths)
            inserted = [point for point, _, action in tree.journal if action == "inserted"]
            assert np.array_equal(tree.stored_points(), np.array(inserted))

    def test_stored_points_and_payloads(self):
        tree = make_tree()
        tree.insert([0.3, 0.3], [1.0, 2.0, 3.0])
        np.testing.assert_allclose(tree.stored_points(), [[0.3, 0.3]])
        np.testing.assert_allclose(tree.stored_payload([0.3, 0.3]), [1.0, 2.0, 3.0])
        with pytest.raises(ValidationError):
            tree.stored_payload([0.9, 0.9])


class TestHighDimensional:
    def test_histogram_domain_insert_and_predict(self):
        dimension = 15
        tree = SimplexTree(
            standard_simplex_vertices(dimension, margin=1e-6),
            value_dimension=2 * dimension,
            default_value=np.concatenate([np.zeros(dimension), np.ones(dimension)]),
            epsilon=0.02,
        )
        rng = np.random.default_rng(4)
        for _ in range(25):
            histogram = rng.dirichlet(np.ones(dimension + 1))[:-1]
            value = np.concatenate([rng.normal(scale=0.05, size=dimension), rng.random(dimension) + 0.5])
            tree.insert(histogram, value)
        assert tree.n_stored_points > 0
        probe = rng.dirichlet(np.ones(dimension + 1))[:-1]
        prediction = tree.predict(probe)
        assert prediction.shape == (2 * dimension,)
        assert np.all(np.isfinite(prediction))

"""Tests for repro.core.analysis."""

import numpy as np

from repro.core.analysis import storage_estimate
from repro.core.simplex_tree import SimplexTree
from repro.geometry.bounding import unit_cube_root_vertices


def build_tree(dimension=3, value_dimension=6, n_points=30, seed=0, epsilon=0.0):
    tree = SimplexTree(
        unit_cube_root_vertices(dimension, margin=1e-9),
        value_dimension=value_dimension,
        epsilon=epsilon,
    )
    rng = np.random.default_rng(seed)
    for point in rng.random((n_points, dimension)) * 0.9 + 0.05:
        tree.insert(point, rng.normal(size=value_dimension))
    return tree


class TestStorageEstimate:
    def test_empty_tree(self):
        tree = SimplexTree(unit_cube_root_vertices(4), value_dimension=8)
        report = storage_estimate(tree)
        assert report.n_stored_points == 0
        assert report.point_bytes == 0
        assert report.payload_bytes == (4 + 1) * 8 * 8  # root corners only
        assert report.total_bytes > 0
        assert report.bytes_per_stored_point == 0.0

    def test_populated_tree_breakdown(self):
        tree = build_tree(dimension=3, value_dimension=6, n_points=20)
        report = storage_estimate(tree)
        assert report.n_stored_points == tree.n_stored_points
        assert report.point_bytes == tree.n_stored_points * 3 * 8
        assert report.payload_bytes == (tree.n_stored_points + 4) * 6 * 8
        assert report.total_bytes == report.point_bytes + report.payload_bytes + report.structure_bytes

    def test_storage_linear_in_dimension(self):
        # The paper's claim: per stored point the cost is O(D + N), i.e.
        # linear in the dimensionality.  Doubling D (with N = 2D) should
        # roughly double the per-point byte cost, not square it.
        small = storage_estimate(build_tree(dimension=3, value_dimension=6, n_points=25, seed=1))
        large = storage_estimate(build_tree(dimension=6, value_dimension=12, n_points=25, seed=1))
        ratio = large.bytes_per_stored_point / small.bytes_per_stored_point
        assert ratio < 3.5  # clearly sub-quadratic (quadratic would be ~4x)

    def test_storage_grows_with_stored_points(self):
        few = storage_estimate(build_tree(n_points=10, seed=2))
        many = storage_estimate(build_tree(n_points=40, seed=2))
        assert many.total_bytes > few.total_bytes

"""Tests for repro.geometry.triangulation."""

import numpy as np
import pytest

from repro.geometry.bounding import standard_simplex_vertices, unit_cube_root_vertices
from repro.geometry.triangulation import IncrementalTriangulation
from repro.utils.validation import ValidationError


@pytest.fixture()
def triangulation_2d() -> IncrementalTriangulation:
    return IncrementalTriangulation(unit_cube_root_vertices(2))


def _sample_inside_unit_square(rng, count):
    return rng.random((count, 2)) * 0.9 + 0.05


class TestConstruction:
    def test_initial_state(self, triangulation_2d):
        assert triangulation_2d.dimension == 2
        assert triangulation_2d.n_points == 0
        assert triangulation_2d.n_simplices == 1
        assert triangulation_2d.depth() == 0
        assert len(triangulation_2d.leaves()) == 1

    def test_points_empty_matrix(self, triangulation_2d):
        assert triangulation_2d.points.shape == (0, 2)


class TestLocate:
    def test_root_is_returned_before_any_insert(self, triangulation_2d):
        node, visited = triangulation_2d.locate([0.5, 0.5])
        assert node is triangulation_2d.root
        assert visited == 1

    def test_outside_point_raises(self, triangulation_2d):
        with pytest.raises(ValidationError):
            triangulation_2d.locate([10.0, 10.0])

    def test_locate_after_insert_descends(self, triangulation_2d):
        triangulation_2d.insert([0.5, 0.5])
        node, visited = triangulation_2d.locate([0.1, 0.1])
        assert node.is_leaf
        assert visited == 2

    def test_located_leaf_contains_point(self, triangulation_2d):
        rng = np.random.default_rng(0)
        for point in _sample_inside_unit_square(rng, 20):
            triangulation_2d.insert(point)
        for probe in _sample_inside_unit_square(rng, 50):
            leaf, _ = triangulation_2d.locate(probe)
            assert leaf.simplex.contains(probe, tolerance=1e-9)


class TestInsert:
    def test_insert_splits_leaf(self, triangulation_2d):
        triangulation_2d.insert([0.4, 0.4])
        assert triangulation_2d.n_points == 1
        assert triangulation_2d.n_simplices == 4  # root + 3 children
        assert len(triangulation_2d.leaves()) == 3

    def test_inserted_point_recorded(self, triangulation_2d):
        point = np.array([0.3, 0.6])
        triangulation_2d.insert(point)
        np.testing.assert_allclose(triangulation_2d.points[0], point)

    def test_insert_outside_raises(self, triangulation_2d):
        with pytest.raises(ValidationError):
            triangulation_2d.insert([5.0, 5.0])

    def test_insert_duplicate_raises(self, triangulation_2d):
        triangulation_2d.insert([0.5, 0.5])
        with pytest.raises(ValidationError):
            triangulation_2d.insert([0.5, 0.5])

    def test_leaf_count_growth_bound(self, triangulation_2d):
        rng = np.random.default_rng(1)
        for count, point in enumerate(_sample_inside_unit_square(rng, 30), start=1):
            triangulation_2d.insert(point)
            # Each insert replaces one leaf with at most D+1 = 3 leaves.
            assert len(triangulation_2d.leaves()) <= 1 + 2 * count

    def test_depth_increases_monotonically(self, triangulation_2d):
        rng = np.random.default_rng(2)
        previous_depth = 0
        for point in _sample_inside_unit_square(rng, 25):
            triangulation_2d.insert(point)
            depth = triangulation_2d.depth()
            assert depth >= previous_depth
            previous_depth = depth


class TestIncrementalBookkeeping:
    @pytest.mark.parametrize("dimension", [2, 6])
    def test_depth_leaf_count_and_points_equal_a_full_walk_after_every_insert(self, dimension):
        triangulation = IncrementalTriangulation(unit_cube_root_vertices(dimension))
        rng = np.random.default_rng(7)
        inserted = []
        # Interior points, exact repeats (rejected) and points on an existing
        # edge (fewer than D+1 children) all go through the same counters.
        for step in range(60):
            if step % 7 == 3 and inserted:
                point = inserted[rng.integers(0, len(inserted))]
            elif step % 7 == 5:
                corners = triangulation.leaves()[step].simplex.vertices
                point = 0.5 * (corners[0] + corners[1])
            else:
                point = rng.random(dimension) * 0.9 + 0.05
            try:
                triangulation.insert(point)
                inserted.append(point)
            except ValidationError:
                pass
            leaves = triangulation.leaves()
            assert triangulation.n_leaves == len(leaves)
            assert triangulation.depth() == max(leaf.depth for leaf in leaves)
            assert triangulation.n_points == len(inserted)
            assert np.array_equal(triangulation.points, np.array(inserted).reshape(-1, dimension))
        assert triangulation.n_leaves < 1 + dimension * len(inserted)  # some split had fewer children

    def test_split_takes_a_leaf_and_returns_the_new_vertex_id(self, triangulation_2d):
        root = triangulation_2d.root
        assert triangulation_2d.split(root, [0.4, 0.4]) == 3  # after the three root corners
        assert [child.vertex_ids.tolist() for child in root.children] == [[3, 1, 2], [0, 3, 2], [0, 1, 3]]
        with pytest.raises(ValidationError):
            triangulation_2d.split(root, [0.2, 0.2])  # no longer a leaf

    def test_points_view_is_read_only(self, triangulation_2d):
        triangulation_2d.insert([0.4, 0.4])
        with pytest.raises(ValueError):
            triangulation_2d.points[0, 0] = 9.0


class TestPartitionInvariant:
    def test_leaves_cover_domain_samples(self):
        triangulation = IncrementalTriangulation(unit_cube_root_vertices(3))
        rng = np.random.default_rng(3)
        for point in rng.random((15, 3)) * 0.9 + 0.05:
            triangulation.insert(point)
        leaves = triangulation.leaves()
        for probe in rng.random((100, 3)):
            containing = [leaf for leaf in leaves if leaf.simplex.contains(probe, tolerance=1e-9)]
            assert containing, "every cube point must be covered by some leaf"

    def test_leaf_volumes_sum_to_root_volume(self):
        triangulation = IncrementalTriangulation(standard_simplex_vertices(3))
        rng = np.random.default_rng(4)
        for _ in range(10):
            histogram = rng.dirichlet(np.ones(4))
            try:
                triangulation.insert(histogram[:-1])
            except ValidationError:
                pass
        root_volume = triangulation.root.simplex.volume()
        leaf_volume = sum(leaf.simplex.volume() for leaf in triangulation.leaves())
        assert leaf_volume == pytest.approx(root_volume, rel=1e-9)

    def test_every_inserted_point_is_a_leaf_vertex(self):
        triangulation = IncrementalTriangulation(unit_cube_root_vertices(2))
        rng = np.random.default_rng(5)
        points = _sample_inside_unit_square(rng, 12)
        for point in points:
            triangulation.insert(point)
        leaf_vertices = np.vstack([leaf.simplex.vertices for leaf in triangulation.leaves()])
        for point in points:
            assert np.any(np.all(np.isclose(leaf_vertices, point, atol=1e-12), axis=1))

    def test_high_dimensional_insertions(self):
        dimension = 15
        triangulation = IncrementalTriangulation(standard_simplex_vertices(dimension, margin=1e-6))
        rng = np.random.default_rng(6)
        for _ in range(10):
            histogram = rng.dirichlet(np.ones(dimension + 1))
            triangulation.insert(histogram[:-1])
        assert triangulation.n_points == 10
        for _ in range(20):
            probe = rng.dirichlet(np.ones(dimension + 1))[:-1]
            leaf, _ = triangulation.locate(probe)
            assert leaf.simplex.contains(probe, tolerance=1e-9)

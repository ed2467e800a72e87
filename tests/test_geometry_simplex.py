"""Tests for repro.geometry.simplex."""

import numpy as np
import pytest

from repro.geometry.simplex import Simplex
from repro.utils.validation import ValidationError


@pytest.fixture()
def triangle() -> Simplex:
    return Simplex(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))


class TestConstruction:
    def test_dimension_and_vertex_count(self, triangle):
        assert triangle.dimension == 2
        assert triangle.n_vertices == 3

    def test_vertices_are_read_only(self, triangle):
        with pytest.raises(ValueError):
            triangle.vertices[0, 0] = 5.0

    def test_rejects_wrong_vertex_count(self):
        with pytest.raises(ValidationError):
            Simplex(np.zeros((2, 2)))

    def test_vertex_accessor_returns_copy(self, triangle):
        vertex = triangle.vertex(1)
        vertex[0] = 99.0
        assert triangle.vertices[1, 0] == 1.0

    def test_equality_and_hash(self, triangle):
        other = Simplex(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        assert triangle == other
        assert hash(triangle) == hash(other)

    def test_inequality(self, triangle):
        other = Simplex(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]]))
        assert triangle != other

    def test_holds_a_copy_of_the_given_vertices(self):
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        simplex = Simplex(vertices)
        vertices[1, 0] = 7.0
        assert simplex.vertices[1, 0] == 1.0


class TestGeometryQueries:
    def test_volume(self, triangle):
        assert triangle.volume() == pytest.approx(0.5)

    def test_contains_interior_and_not_exterior(self, triangle):
        assert triangle.contains([0.25, 0.25])
        assert not triangle.contains([0.9, 0.9])

    def test_contains_its_boundary(self, triangle):
        for point in ([0.0, 0.0], [1.0, 0.0], [0.5, 0.0], [0.5, 0.5], [0.0, 0.3]):
            assert triangle.contains(point), point

    def test_contains_within_the_tolerance_only(self, triangle):
        assert triangle.contains([0.5, -1e-10])
        assert not triangle.contains([0.5, -1e-6])
        assert triangle.contains([0.5, -1e-6], tolerance=1e-5)

    def test_point_queries_reject_a_wrong_dimension(self, triangle):
        with pytest.raises(ValidationError):
            triangle.contains([0.1, 0.1, 0.1])
        with pytest.raises(ValidationError):
            triangle.barycentric_coordinates([0.1])

    def test_barycentric_coordinates_match_module(self, triangle):
        weights = triangle.barycentric_coordinates([0.2, 0.3])
        assert weights.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(weights @ triangle.vertices, [0.2, 0.3], atol=1e-12)

    def test_is_degenerate_false_for_triangle(self, triangle):
        assert not triangle.is_degenerate()

    def test_degenerate_detection(self):
        flat = Simplex(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
        assert flat.is_degenerate()


class TestSplit:
    def test_split_interior_point_gives_three_children(self, triangle):
        children = triangle.split([0.25, 0.25])
        assert len(children) == 3

    def test_children_volumes_sum_to_parent(self, triangle):
        children = triangle.split([0.2, 0.3])
        assert sum(child.volume() for child in children) == pytest.approx(triangle.volume())

    def test_children_contain_split_point(self, triangle):
        point = np.array([0.3, 0.3])
        for child in triangle.split(point):
            assert child.contains(point)

    def test_children_cover_parent_samples(self, triangle):
        rng = np.random.default_rng(3)
        children = triangle.split([0.2, 0.2])
        for _ in range(50):
            # Rejection-sample a point inside the parent triangle.
            candidate = rng.random(2)
            if candidate.sum() > 1.0:
                candidate = 1.0 - candidate
            assert any(child.contains(candidate, tolerance=1e-9) for child in children)

    def test_split_on_edge_gives_fewer_children(self, triangle):
        # A point on the edge opposite vertex 2 produces a degenerate child
        # for that vertex, which is dropped.
        children = triangle.split([0.5, 0.0])
        assert len(children) == 2

    def test_split_outside_raises(self, triangle):
        with pytest.raises(ValidationError):
            triangle.split([2.0, 2.0])

    def test_split_on_vertex_raises(self, triangle):
        with pytest.raises(ValidationError):
            triangle.split([0.0, 0.0])

    def test_split_in_three_dimensions(self):
        tetrahedron = Simplex(np.vstack([np.zeros(3), np.eye(3)]))
        children = tetrahedron.split([0.2, 0.2, 0.2])
        assert len(children) == 4
        assert sum(child.volume() for child in children) == pytest.approx(tetrahedron.volume())

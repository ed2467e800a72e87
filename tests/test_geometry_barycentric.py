"""Tests for repro.geometry.barycentric."""

import numpy as np
import pytest

from repro.geometry.barycentric import barycentric_coordinates
from repro.utils.validation import ValidationError


TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


class TestBarycentricCoordinates:
    def test_vertex_gets_unit_coordinate(self):
        for position in range(3):
            weights = barycentric_coordinates(TRIANGLE, TRIANGLE[position])
            expected = np.zeros(3)
            expected[position] = 1.0
            np.testing.assert_allclose(weights, expected, atol=1e-12)

    def test_centroid_gets_equal_coordinates(self):
        centroid = TRIANGLE.mean(axis=0)
        weights = barycentric_coordinates(TRIANGLE, centroid)
        np.testing.assert_allclose(weights, np.full(3, 1.0 / 3.0), atol=1e-12)

    def test_coordinates_sum_to_one(self):
        point = np.array([0.2, 0.3])
        weights = barycentric_coordinates(TRIANGLE, point)
        assert weights.sum() == pytest.approx(1.0)

    def test_outside_point_has_negative_coordinate(self):
        weights = barycentric_coordinates(TRIANGLE, np.array([-0.5, -0.5]))
        assert weights.min() < 0

    def test_reconstruction(self):
        point = np.array([0.25, 0.4])
        weights = barycentric_coordinates(TRIANGLE, point)
        np.testing.assert_allclose(weights @ TRIANGLE, point, atol=1e-12)

    def test_higher_dimension(self):
        rng = np.random.default_rng(0)
        dimension = 5
        vertices = rng.random((dimension + 1, dimension))
        point = vertices.mean(axis=0)
        weights = barycentric_coordinates(vertices, point)
        assert weights.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(weights @ vertices, point, atol=1e-10)

    def test_rejects_wrong_vertex_count(self):
        with pytest.raises(ValidationError):
            barycentric_coordinates(np.zeros((3, 3)), np.zeros(3))

    def test_rejects_wrong_point_dimension(self):
        with pytest.raises(ValidationError):
            barycentric_coordinates(TRIANGLE, np.zeros(3))

    def test_degenerate_simplex_raises_linalg_error(self):
        degenerate = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(np.linalg.LinAlgError):
            barycentric_coordinates(degenerate, np.array([0.5, 0.5]))

    def test_unchecked_path_gives_the_same_coordinates(self):
        point = np.array([0.3, 0.1])
        np.testing.assert_array_equal(
            barycentric_coordinates(TRIANGLE, point, check=False),
            barycentric_coordinates(TRIANGLE, point),
        )


class TestInterpolationByCoordinates:
    """What the Simplex Tree's prediction does with the coordinates: the
    weighted sum of the vertex values (Section 4.2's linear interpolation)."""

    def test_a_linear_function_is_reproduced_exactly(self):
        rng = np.random.default_rng(3)
        vertices = rng.random((4, 3))
        slope, offset = rng.normal(size=3), 0.7
        values = vertices @ slope + offset
        for point in rng.dirichlet(np.ones(4), size=10) @ vertices:
            weights = barycentric_coordinates(vertices, point)
            assert weights @ values == pytest.approx(point @ slope + offset, abs=1e-12)

    def test_inside_the_simplex_the_sum_is_a_convex_combination(self):
        rng = np.random.default_rng(4)
        vertices = rng.random((5, 4))
        values = rng.normal(size=(5, 2))
        for point in rng.dirichlet(np.ones(5), size=20) @ vertices:
            weights = barycentric_coordinates(vertices, point)
            assert weights.min() >= -1e-12
            interpolated = weights @ values
            assert np.all(interpolated >= values.min(axis=0) - 1e-12)
            assert np.all(interpolated <= values.max(axis=0) + 1e-12)

    def test_coordinates_follow_a_reordering_of_the_vertices(self):
        rng = np.random.default_rng(5)
        vertices = rng.random((4, 3))
        point = np.array([0.2, 0.3, 0.5]) @ vertices[:3] * 0.5 + vertices[3] * 0.5
        order = np.array([2, 0, 3, 1])
        np.testing.assert_allclose(
            barycentric_coordinates(vertices[order], point),
            barycentric_coordinates(vertices, point)[order],
            atol=1e-12,
        )

    def test_coordinates_are_unchanged_by_an_affine_map(self):
        rng = np.random.default_rng(6)
        vertices = rng.random((3, 2))
        point = np.array([0.25, 0.35])
        matrix, shift = np.array([[2.0, 0.5], [-0.3, 1.5]]), np.array([4.0, -1.0])
        np.testing.assert_allclose(
            barycentric_coordinates(vertices @ matrix.T + shift, matrix @ point + shift),
            barycentric_coordinates(vertices, point),
            atol=1e-12,
        )

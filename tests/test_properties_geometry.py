"""Property-based tests (hypothesis) for the geometry substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.barycentric import barycentric_coordinates
from repro.geometry.bounding import standard_simplex_vertices, unit_cube_root_vertices
from repro.geometry.simplex import Simplex
from repro.geometry.triangulation import IncrementalTriangulation
from repro.utils.validation import ValidationError

DIMENSIONS = st.integers(min_value=2, max_value=6)


def _simplex_and_interior_point(draw, dimension):
    """Draw a well-conditioned simplex and a point inside it."""
    rng_seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(rng_seed)
    while True:
        vertices = rng.random((dimension + 1, dimension)) * 2.0 - 0.5
        edges = vertices[1:] - vertices[0]
        singular = np.linalg.svd(edges, compute_uv=False)
        if singular[-1] / singular[0] > 1e-3:
            break
    weights = rng.dirichlet(np.ones(dimension + 1))
    point = weights @ vertices
    return vertices, point, weights


@st.composite
def simplex_with_point(draw):
    dimension = draw(DIMENSIONS)
    return _simplex_and_interior_point(draw, dimension)


class TestBarycentricProperties:
    @settings(max_examples=50, deadline=None)
    @given(simplex_with_point())
    def test_coordinates_sum_to_one(self, data):
        vertices, point, _ = data
        weights = barycentric_coordinates(vertices, point)
        assert weights.sum() == pytest.approx(1.0, abs=1e-8)

    @settings(max_examples=50, deadline=None)
    @given(simplex_with_point())
    def test_reconstruction(self, data):
        vertices, point, _ = data
        weights = barycentric_coordinates(vertices, point)
        np.testing.assert_allclose(weights @ vertices, point, atol=1e-7)

    @settings(max_examples=50, deadline=None)
    @given(simplex_with_point())
    def test_interior_points_have_non_negative_coordinates(self, data):
        vertices, point, _ = data
        weights = barycentric_coordinates(vertices, point)
        assert np.all(weights >= -1e-7)


class TestSimplexSplitProperties:
    @settings(max_examples=40, deadline=None)
    @given(simplex_with_point())
    def test_split_preserves_volume(self, data):
        vertices, point, weights = data
        simplex = Simplex(vertices)
        # Skip points that lie (numerically) on a face or coincide with a vertex.
        if np.min(weights) < 1e-4:
            return
        children = simplex.split(point)
        total = sum(child.volume() for child in children)
        assert total == pytest.approx(simplex.volume(), rel=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(simplex_with_point())
    def test_split_children_contain_point(self, data):
        vertices, point, weights = data
        simplex = Simplex(vertices)
        if np.min(weights) < 1e-4:
            return
        for child in simplex.split(point):
            assert child.contains(point, tolerance=1e-7)


class TestTriangulationProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_every_domain_point_is_locatable(self, dimension, n_inserts, seed):
        triangulation = IncrementalTriangulation(unit_cube_root_vertices(dimension, margin=1e-9))
        rng = np.random.default_rng(seed)
        for point in rng.random((n_inserts, dimension)) * 0.9 + 0.05:
            try:
                triangulation.insert(point)
            except ValidationError:
                pass  # duplicate point, allowed to skip
        for probe in rng.random((20, dimension)):
            leaf, visited = triangulation.locate(probe)
            assert leaf.is_leaf
            assert visited <= triangulation.depth() + 1
            assert leaf.simplex.contains(probe, tolerance=1e-7)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=1, max_value=25),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([0.0, 1e-10, 1e-6]),
    )
    def test_locate_is_the_child_by_child_walk(self, locate_oracle, dimension, n_inserts, seed, nudge):
        """Same leaf object, same number of visited nodes — also on vertices,
        next to them and on shared faces, where the closed form hands over to
        the per-child solves."""
        triangulation = IncrementalTriangulation(unit_cube_root_vertices(dimension, margin=1e-9))
        rng = np.random.default_rng(seed)
        for point in rng.random((n_inserts, dimension)) * 0.9 + 0.05:
            try:
                triangulation.insert(point)
            except ValidationError:
                pass
        leaves = triangulation.leaves()
        probes = list(rng.random((10, dimension)))
        for _ in range(10):
            vertices = leaves[rng.integers(0, len(leaves))].simplex.vertices
            k = int(rng.integers(1, dimension + 1))  # k = 1: a vertex; k <= D: a shared face
            corners = rng.choice(dimension + 1, k, replace=False)
            on_face = rng.dirichlet(np.ones(k)) @ vertices[corners]
            probes.append(on_face + nudge * rng.choice([-1.0, 1.0], dimension))
        for probe in probes:
            try:
                expected = locate_oracle(triangulation.root, probe)
            except ValidationError:
                with pytest.raises(ValidationError):
                    triangulation.locate(probe)
                continue
            leaf, visited = triangulation.locate(probe)
            assert leaf is expected[0]
            assert visited == expected[1]

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=1, max_value=15),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_simplex_count_grows_by_at_most_d_plus_one(self, dimension, n_inserts, seed):
        triangulation = IncrementalTriangulation(standard_simplex_vertices(dimension, margin=1e-6))
        rng = np.random.default_rng(seed)
        inserted = 0
        for _ in range(n_inserts):
            histogram = rng.dirichlet(np.ones(dimension + 1))
            try:
                triangulation.insert(histogram[:-1])
                inserted += 1
            except ValidationError:
                pass
        assert triangulation.n_simplices <= 1 + inserted * (dimension + 1)
        assert triangulation.n_points == inserted

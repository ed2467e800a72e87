"""The contract every distance family the library runs must keep.

One fixture walks the weighted-Euclidean and Minkowski members the scan,
the feedback loop and the metric indexes build; each test states one rule
of the :class:`~repro.distances.base.DistanceFunction` interface: metric
axioms, the agreement of the scalar, row and matrix forms, the workspace
and block-view paths, the float32 stage's error against the scan's
candidate margin, and the parameter round trip the Simplex Tree relies on.
"""

import numpy as np
import pytest

from repro.database.collection import CorpusWorkspace
from repro.distances import (
    MinkowskiDistance,
    WeightedEuclideanDistance,
    euclidean,
)
from repro.distances.base import FAST_MARGIN_SCALE
from repro.utils.validation import ValidationError

DIMENSION = 6


def _weights(rng, zero: bool = False):
    weights = rng.random(DIMENSION) + 0.1
    if zero:
        weights[2] = 0.0
    return weights


FAMILIES = {
    "euclidean": lambda rng: euclidean(DIMENSION),
    "cityblock": lambda rng: MinkowskiDistance(DIMENSION, order=1.0),
    "minkowski-1.5": lambda rng: MinkowskiDistance(DIMENSION, order=1.5, weights=_weights(rng)),
    "minkowski-3": lambda rng: MinkowskiDistance(DIMENSION, order=3.0, weights=_weights(rng, zero=True)),
    "weighted-euclidean-default": lambda rng: WeightedEuclideanDistance.default(DIMENSION),
    "weighted-euclidean": lambda rng: WeightedEuclideanDistance(DIMENSION, weights=_weights(rng, zero=True)),
}


@pytest.fixture(params=sorted(FAMILIES))
def distance(request):
    return FAMILIES[request.param](np.random.default_rng(7))


@pytest.fixture()
def data():
    rng = np.random.default_rng(11)
    return rng.random((9, DIMENSION)), rng.random((60, DIMENSION))


def _order(distance) -> float:
    """The exponent of the kernel's natural scale (squared for weighted Euclidean)."""
    return getattr(distance, "order", 2.0)


def _reach(queries, workspace):
    """The scan's per-query bound on every centred coordinate."""
    return np.abs(queries - workspace.mean) + workspace.extent


class TestMetricAxioms:
    def test_identity_is_zero(self, distance, data):
        _, points = data
        assert distance.distance(points[3], points[3]) == 0.0
        assert distance.distances_to(points[3], points)[3] == 0.0

    def test_non_negative_and_finite(self, distance, data):
        matrix = distance.pairwise(*data)
        assert np.all(np.isfinite(matrix))
        assert np.all(matrix >= 0.0)

    def test_symmetry(self, distance, data):
        queries, points = data
        np.testing.assert_allclose(
            distance.pairwise(queries, points),
            distance.pairwise(points, queries).T,
            rtol=1e-9,
            atol=1e-9,
        )

    def test_triangle_inequality(self, distance, data):
        _, points = data
        matrix = distance.pairwise(points[:20], points[:20])
        via = matrix[:, :, None] + matrix[None, :, :]
        assert np.all(matrix[:, None, :] <= via + 1e-9)


class TestForms:
    def test_distances_to_matches_distance(self, distance, data):
        queries, points = data
        row = distance.distances_to(queries[0], points)
        for value, point in zip(row, points):
            assert value == pytest.approx(distance.distance(queries[0], point), rel=1e-12, abs=1e-12)

    def test_pairwise_matches_distances_to(self, distance, data):
        queries, points = data
        matrix = distance.pairwise(queries, points)
        assert matrix.shape == (queries.shape[0], points.shape[0])
        assert matrix.dtype == np.float64
        for row, query in zip(matrix, queries):
            np.testing.assert_allclose(row, distance.distances_to(query, points), rtol=1e-9, atol=1e-9)

    def test_workspace_leaves_the_exact_matrix_unchanged(self, distance, data):
        queries, points = data
        workspace = CorpusWorkspace(points)
        np.testing.assert_allclose(
            distance.pairwise(queries, points, workspace=workspace),
            distance.pairwise(queries, points.copy()),
            rtol=1e-9,
            atol=1e-9,
        )

    def test_block_view_matches_its_slice(self, distance, data):
        queries, points = data
        view = CorpusWorkspace(points).block(17, 43)
        np.testing.assert_allclose(
            distance.pairwise(queries, view.matrix, workspace=view),
            distance.pairwise(queries, points[17:43].copy()),
            rtol=1e-9,
            atol=1e-9,
        )

    def test_foreign_workspace_is_ignored(self, distance, data):
        queries, points = data
        foreign = CorpusWorkspace(points[::-1].copy() + 5.0)
        for precision in ("exact", "fast"):
            assert np.array_equal(
                distance.pairwise(queries, points, workspace=foreign, precision=precision),
                distance.pairwise(queries, points, precision=precision),
            )


class TestFastStage:
    def test_fast_error_stays_inside_the_scan_margin(self, distance, data):
        queries, points = data
        workspace = CorpusWorkspace(points)
        fast = distance.pairwise(queries, points, workspace=workspace, precision="fast")
        assert fast.dtype == np.float32
        natural = distance.pairwise(queries, points) ** _order(distance)
        margin = FAST_MARGIN_SCALE * np.maximum(1.0, distance.term_bound(_reach(queries, workspace)))
        assert np.all(np.abs(fast - natural) <= margin[:, None])

    def test_term_bound_covers_every_value(self, distance, data):
        queries, points = data
        workspace = CorpusWorkspace(points)
        bound = distance.term_bound(_reach(queries, workspace))
        assert bound.shape == (queries.shape[0],)
        natural = distance.pairwise(queries, points) ** _order(distance)
        fast = distance.pairwise(queries, points, workspace=workspace, precision="fast")
        assert np.all(natural <= bound[:, None] * (1 + 1e-9))
        assert np.all(fast <= bound[:, None] * (1 + 1e-5))

    def test_rejects_unknown_precision(self, distance, data):
        with pytest.raises(ValidationError):
            distance.pairwise(*data, precision="half")


class TestParameters:
    def test_parameter_roundtrip(self, distance, data):
        parameters = distance.parameters()
        assert parameters.shape == (DIMENSION,)
        rebuilt = distance.with_parameters(parameters)
        assert type(rebuilt) is type(distance)
        assert _order(rebuilt) == _order(distance)
        assert np.array_equal(rebuilt.pairwise(*data), distance.pairwise(*data))

    def test_parameters_are_a_copy(self, distance, data):
        before = distance.pairwise(*data)
        distance.parameters()[:] = 1e6
        assert np.array_equal(distance.pairwise(*data), before)

    def test_scaling_the_weights_scales_the_natural_scale(self, distance, data):
        scaled = distance.with_parameters(3.0 * distance.parameters())
        order = _order(distance)
        np.testing.assert_allclose(
            scaled.pairwise(*data) ** order,
            3.0 * distance.pairwise(*data) ** order,
            rtol=1e-9,
            atol=1e-12,
        )

    @pytest.mark.parametrize("change", ["short", "negative", "nan"])
    def test_with_parameters_rejects_bad_vectors(self, distance, change):
        parameters = distance.parameters()
        if change == "short":
            parameters = parameters[:-1]
        elif change == "negative":
            parameters[0] = -1.0
        else:
            parameters[0] = np.nan
        with pytest.raises(ValidationError):
            distance.with_parameters(parameters)


class TestInputValidation:
    def test_rejects_wrong_dimension(self, distance, data):
        queries, points = data
        with pytest.raises(ValidationError):
            distance.distance(queries[0][:-1], points[0][:-1])
        with pytest.raises(ValidationError):
            distance.distances_to(queries[0], points[:, :-1])
        with pytest.raises(ValidationError):
            distance.pairwise(queries[:, :-1], points)

    def test_rejects_non_finite_points(self, distance, data):
        queries, points = data
        bad = points.copy()
        bad[4, 1] = np.inf
        with pytest.raises(ValidationError):
            distance.distances_to(queries[0], bad)
        with pytest.raises(ValidationError):
            distance.pairwise(queries, bad)
        with pytest.raises(ValidationError):
            distance.distance(np.full(DIMENSION, np.nan), points[0])

"""Tests for repro.core.oqp."""

import numpy as np
import pytest

from repro.core.oqp import OptimalQueryParameters
from repro.utils.validation import ValidationError


class TestConstruction:
    def test_basic_properties(self):
        oqp = OptimalQueryParameters(delta=np.zeros(3), weights=np.ones(4))
        assert oqp.query_dimension == 3
        assert oqp.weight_dimension == 4

    def test_arrays_are_read_only(self):
        oqp = OptimalQueryParameters(delta=np.zeros(2), weights=np.ones(2))
        with pytest.raises(ValueError):
            oqp.delta[0] = 1.0
        with pytest.raises(ValueError):
            oqp.weights[0] = 2.0

    def test_rejects_negative_weights(self):
        with pytest.raises(ValidationError):
            OptimalQueryParameters(delta=np.zeros(2), weights=np.array([1.0, -1.0]))

    def test_default(self):
        oqp = OptimalQueryParameters.default(3)
        np.testing.assert_allclose(oqp.delta, 0.0)
        np.testing.assert_allclose(oqp.weights, 1.0)
        assert oqp.is_default()

    def test_default_with_distinct_weight_dimension(self):
        oqp = OptimalQueryParameters.default(3, weight_dimension=5)
        assert oqp.weight_dimension == 5


class TestVectorConversion:
    def test_roundtrip(self):
        oqp = OptimalQueryParameters(delta=np.array([0.1, -0.2]), weights=np.array([2.0, 0.5, 1.0]))
        rebuilt = OptimalQueryParameters.from_vector(oqp.to_vector(), query_dimension=2)
        np.testing.assert_allclose(rebuilt.delta, oqp.delta)
        np.testing.assert_allclose(rebuilt.weights, oqp.weights)

    def test_from_vector_clamps_negative_weights(self):
        vector = np.array([0.0, 0.0, -0.05, 1.0])
        oqp = OptimalQueryParameters.from_vector(vector, query_dimension=2)
        assert np.all(oqp.weights >= 0.0)

    def test_vector_layout(self):
        oqp = OptimalQueryParameters(delta=np.array([1.0]), weights=np.array([2.0, 3.0]))
        np.testing.assert_allclose(oqp.to_vector(), [1.0, 2.0, 3.0])


class TestSemantics:
    def test_optimal_query_point(self):
        oqp = OptimalQueryParameters(delta=np.array([0.1, 0.2]), weights=np.ones(2))
        np.testing.assert_allclose(oqp.optimal_query_point([1.0, 1.0]), [1.1, 1.2])

    def test_optimal_query_point_dimension_check(self):
        oqp = OptimalQueryParameters(delta=np.zeros(2), weights=np.ones(2))
        with pytest.raises(ValidationError):
            oqp.optimal_query_point([1.0, 2.0, 3.0])

    def test_is_default_tolerance(self):
        almost = OptimalQueryParameters(delta=np.array([1e-15]), weights=np.array([1.0 + 1e-15]))
        assert almost.is_default()
        not_default = OptimalQueryParameters(delta=np.array([0.1]), weights=np.array([1.0]))
        assert not not_default.is_default()

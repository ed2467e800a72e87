"""Tests for repro.distances.parameters."""

import numpy as np
import pytest

from repro.distances.parameters import (
    default_weight_vector,
    normalize_weights,
    pack_oqp_vector,
    unpack_oqp_vector,
)
from repro.distances.weighted_euclidean import WeightedEuclideanDistance
from repro.utils.validation import ValidationError


class TestNormalizeWeights:
    def test_geometric_mean_is_one(self):
        weights = normalize_weights([1.0, 4.0, 16.0])
        assert np.exp(np.mean(np.log(weights))) == pytest.approx(1.0)

    def test_all_ones_is_fixed_point(self):
        np.testing.assert_allclose(normalize_weights(np.ones(5)), np.ones(5))

    def test_scaling_invariance(self):
        weights = np.array([0.5, 1.0, 8.0])
        np.testing.assert_allclose(normalize_weights(weights), normalize_weights(10.0 * weights))

    def test_normalisation_preserves_ranking(self):
        rng = np.random.default_rng(0)
        raw = rng.random(6) + 0.05
        normalised = normalize_weights(raw)
        query, point_a, point_b = rng.random(6), rng.random(6), rng.random(6)
        raw_distance = WeightedEuclideanDistance(6, weights=raw)
        norm_distance = WeightedEuclideanDistance(6, weights=normalised)
        raw_order = raw_distance.distance(query, point_a) < raw_distance.distance(query, point_b)
        norm_order = norm_distance.distance(query, point_a) < norm_distance.distance(query, point_b)
        assert raw_order == norm_order

    def test_last_mode(self):
        weights = normalize_weights([2.0, 4.0, 8.0], mode="last")
        assert weights[-1] == pytest.approx(1.0)

    def test_sum_mode(self):
        weights = normalize_weights([2.0, 4.0, 6.0], mode="sum")
        assert weights.sum() == pytest.approx(3.0)

    def test_zero_weights_are_clamped(self):
        weights = normalize_weights([0.0, 1.0], epsilon=1e-6)
        assert np.all(weights > 0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            normalize_weights([1.0, 2.0], mode="bogus")

    def test_negative_weights_rejected(self):
        with pytest.raises(ValidationError):
            normalize_weights([-1.0, 1.0])


class TestPacking:
    def test_pack_unpack_roundtrip(self):
        delta = np.array([0.1, -0.2, 0.3])
        weights = np.array([1.0, 2.0, 0.5])
        vector = pack_oqp_vector(delta, weights)
        recovered_delta, recovered_weights = unpack_oqp_vector(vector, 3)
        np.testing.assert_allclose(recovered_delta, delta)
        np.testing.assert_allclose(recovered_weights, weights)

    def test_pack_allows_different_lengths(self):
        vector = pack_oqp_vector(np.zeros(3), np.ones(5))
        assert vector.shape == (8,)

    def test_unpack_rejects_too_short_vector(self):
        with pytest.raises(ValidationError):
            unpack_oqp_vector(np.zeros(3), 3)

    def test_default_weight_vector(self):
        np.testing.assert_allclose(default_weight_vector(6), np.ones(6))
        with pytest.raises(ValidationError):
            default_weight_vector(0)

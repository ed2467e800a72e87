"""Property-based tests for the wavelet and distance substrates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.distances.minkowski import MinkowskiDistance
from repro.distances.parameters import normalize_weights
from repro.distances.weighted_euclidean import WeightedEuclideanDistance
from repro.wavelets.haar import haar_decompose, haar_reconstruct
from repro.wavelets.lifting import (
    lifting_haar_forward,
    lifting_haar_inverse,
    unbalanced_haar_forward,
    unbalanced_haar_inverse,
)

finite_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)


class TestHaarProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10_000))
    def test_roundtrip_power_of_two(self, levels, seed):
        length = 2**levels
        signal = np.random.default_rng(seed).normal(size=length)
        np.testing.assert_allclose(haar_reconstruct(haar_decompose(signal)), signal, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10_000))
    def test_energy_preserved(self, levels, seed):
        length = 2**levels
        signal = np.random.default_rng(seed).normal(size=length)
        coefficients = haar_decompose(signal)
        energy = sum(float(np.sum(band**2)) for band in coefficients)
        assert energy == pytest.approx(float(np.sum(signal**2)), rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=10_000))
    def test_lifting_roundtrip_any_length(self, length, seed):
        signal = np.random.default_rng(seed).normal(size=length)
        if length == 1:
            return
        steps = lifting_haar_forward(signal)
        np.testing.assert_allclose(lifting_haar_inverse(length, steps), signal, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10_000))
    def test_unbalanced_roundtrip(self, length, seed):
        rng = np.random.default_rng(seed)
        positions = np.cumsum(rng.random(length) + 0.05)
        values = rng.normal(size=length)
        steps = unbalanced_haar_forward(positions, values)
        np.testing.assert_allclose(unbalanced_haar_inverse(positions, steps), values, atol=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10_000), finite_floats)
    def test_unbalanced_constant_signal_has_zero_details(self, length, seed, constant):
        rng = np.random.default_rng(seed)
        positions = np.cumsum(rng.random(length) + 0.05)
        steps = unbalanced_haar_forward(positions, np.full(length, constant))
        for step in steps:
            np.testing.assert_allclose(step.detail, 0.0, atol=1e-9 * max(1.0, abs(constant)))


def _distance_strategy(dimension, seed):
    rng = np.random.default_rng(seed)
    if seed % 2 == 0:
        return MinkowskiDistance(dimension, order=1.0 + (seed % 5), weights=rng.random(dimension) + 0.1)
    return WeightedEuclideanDistance(dimension, weights=rng.random(dimension) + 0.1)


class TestDistanceMetricProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_metric_axioms(self, dimension, seed):
        distance = _distance_strategy(dimension, seed)
        rng = np.random.default_rng(seed + 1)
        a, b, c = rng.random(dimension), rng.random(dimension), rng.random(dimension)
        # Identity, non-negativity, symmetry, triangle inequality.
        assert distance.distance(a, a) == pytest.approx(0.0, abs=1e-9)
        assert distance.distance(a, b) >= 0.0
        assert distance.distance(a, b) == pytest.approx(distance.distance(b, a), rel=1e-9)
        assert distance.distance(a, c) <= distance.distance(a, b) + distance.distance(b, c) + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=30),
    )
    def test_vectorised_form_matches_scalar(self, dimension, seed, n_points):
        distance = _distance_strategy(dimension, seed)
        rng = np.random.default_rng(seed + 2)
        query = rng.random(dimension)
        points = rng.random((n_points, dimension))
        batch = distance.distances_to(query, points)
        for row in range(n_points):
            assert batch[row] == pytest.approx(distance.distance(query, points[row]), rel=1e-9, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        arrays(
            np.float64,
            st.integers(min_value=2, max_value=12),
            elements=st.floats(min_value=1e-3, max_value=1e3),
        )
    )
    def test_normalize_weights_scale_invariance(self, weights):
        normalised = normalize_weights(weights)
        assert np.exp(np.mean(np.log(normalised))) == pytest.approx(1.0, rel=1e-6)
        rescaled = normalize_weights(weights * 7.5)
        np.testing.assert_allclose(normalised, rescaled, rtol=1e-9)

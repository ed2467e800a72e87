"""Tests for repro.features.normalization."""

import numpy as np
import pytest

from repro.features.normalization import drop_last_bin
from repro.utils.validation import ValidationError


def _restore_last_bin(embedded):
    """The dropped bin is what the kept bins leave of the unit mass."""
    return np.concatenate([embedded, 1.0 - embedded.sum(axis=-1, keepdims=True)], axis=-1)


class TestDropRestoreLastBin:
    def test_vector_roundtrip(self):
        histogram = np.array([0.1, 0.2, 0.3, 0.4])
        np.testing.assert_allclose(_restore_last_bin(drop_last_bin(histogram)), histogram, atol=1e-12)

    def test_matrix_roundtrip(self):
        rng = np.random.default_rng(0)
        histograms = rng.dirichlet(np.ones(8), size=20)
        np.testing.assert_allclose(_restore_last_bin(drop_last_bin(histograms)), histograms, atol=1e-12)

    def test_embedding_dimension(self):
        rng = np.random.default_rng(1)
        histograms = rng.dirichlet(np.ones(32), size=5)
        assert drop_last_bin(histograms).shape == (5, 31)

    def test_embedded_point_is_in_standard_simplex(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            embedded = drop_last_bin(rng.dirichlet(np.ones(6)))
            assert np.all(embedded >= 0.0)
            assert embedded.sum() <= 1.0 + 1e-12

    def test_all_mass_in_last_bin_maps_to_origin(self):
        histogram = np.array([0.0, 0.0, 1.0])
        np.testing.assert_allclose(drop_last_bin(histogram), [0.0, 0.0])

    def test_drop_rejects_single_bin(self):
        with pytest.raises(ValidationError):
            drop_last_bin(np.array([1.0]))

    def test_drop_returns_a_copy(self):
        histogram = np.array([0.5, 0.25, 0.25])
        embedded = drop_last_bin(histogram)
        embedded[0] = 9.0
        np.testing.assert_array_equal(histogram, [0.5, 0.25, 0.25])
        histograms = np.array([[0.5, 0.5], [0.25, 0.75]])
        drop_last_bin(histograms)[:] = 9.0
        np.testing.assert_array_equal(histograms, [[0.5, 0.5], [0.25, 0.75]])

    def test_drop_accepts_lists(self):
        np.testing.assert_array_equal(drop_last_bin([[0.5, 0.5], [0.25, 0.75]]), [[0.5], [0.25]])

    def test_drop_rejects_single_bin_matrix(self):
        with pytest.raises(ValidationError, match="two bins"):
            drop_last_bin(np.ones((3, 1)))

    def test_drop_rejects_non_finite_bins(self):
        with pytest.raises(ValidationError, match="non-finite"):
            drop_last_bin(np.array([0.5, np.nan, 0.5]))

    def test_drop_rejects_a_stack_of_matrices(self):
        with pytest.raises(ValidationError, match="2-dimensional"):
            drop_last_bin(np.full((2, 2, 2), 0.5))

"""Tests for repro.features.histogram."""

import numpy as np
import pytest

from repro.features.histogram import HistogramExtractor, histogram_from_hsv_pixels
from repro.utils.validation import ValidationError


class TestHistogramFromHsvPixels:
    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        histogram = histogram_from_hsv_pixels(rng.random((500, 3)))
        assert histogram.sum() == pytest.approx(1.0)

    def test_default_layout_is_32_bins(self):
        rng = np.random.default_rng(1)
        histogram = histogram_from_hsv_pixels(rng.random((100, 3)))
        assert histogram.shape == (32,)

    def test_single_color_goes_to_one_bin(self):
        pixels = np.tile(np.array([[0.0, 0.0, 1.0]]), (50, 1))
        histogram = histogram_from_hsv_pixels(pixels)
        assert np.count_nonzero(histogram) == 1
        assert histogram.max() == pytest.approx(1.0)

    def test_hue_one_falls_in_last_hue_bin(self):
        pixels = np.array([[1.0, 0.0, 1.0]])
        histogram = histogram_from_hsv_pixels(pixels, n_hue_bins=8, n_saturation_bins=4)
        assert histogram[7 * 4 + 0] == pytest.approx(1.0)

    def test_custom_layout(self):
        rng = np.random.default_rng(2)
        histogram = histogram_from_hsv_pixels(rng.random((100, 3)), n_hue_bins=4, n_saturation_bins=4)
        assert histogram.shape == (16,)

    def test_rejects_empty_pixels(self):
        with pytest.raises(ValidationError):
            histogram_from_hsv_pixels(np.zeros((0, 3)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            histogram_from_hsv_pixels(np.array([[1.2, 0.0, 0.0]]))


class TestHistogramExtractor:
    def test_paper_layout(self):
        extractor = HistogramExtractor()
        assert extractor.n_hue_bins == 8
        assert extractor.n_saturation_bins == 4
        assert extractor.n_bins == 32

    def test_bin_index_layout(self):
        extractor = HistogramExtractor(n_hue_bins=8, n_saturation_bins=4)
        assert extractor.bin_index(0.0, 0.0) == 0
        assert extractor.bin_index(0.99, 0.99) == 31
        assert extractor.bin_index(0.0, 0.99) == 3
        assert extractor.bin_index(0.13, 0.0) == 4  # second hue range, first saturation range

    def test_bin_index_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            HistogramExtractor().bin_index(1.5, 0.0)

    def test_extract_from_rgb_red_image(self):
        extractor = HistogramExtractor()
        image = np.zeros((4, 4, 3))
        image[..., 0] = 1.0  # pure red
        histogram = extractor.extract_from_rgb(image)
        assert histogram[extractor.bin_index(0.0, 1.0)] == pytest.approx(1.0)

    def test_extract_from_hsv_matches_rgb_path(self):
        from repro.features.hsv import rgb_to_hsv

        rng = np.random.default_rng(3)
        image = rng.random((8, 8, 3))
        extractor = HistogramExtractor()
        np.testing.assert_allclose(
            extractor.extract_from_rgb(image),
            extractor.extract_from_hsv(rgb_to_hsv(image)),
            atol=1e-12,
        )

    def test_histogram_is_permutation_invariant(self):
        rng = np.random.default_rng(5)
        image = rng.random((6, 6, 3))
        shuffled = image.reshape(-1, 3)[rng.permutation(36)].reshape(6, 6, 3)
        extractor = HistogramExtractor()
        np.testing.assert_allclose(
            extractor.extract_from_rgb(image), extractor.extract_from_rgb(shuffled), atol=1e-12
        )

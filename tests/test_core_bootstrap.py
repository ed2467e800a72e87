"""Tests for repro.core.bootstrap."""

import numpy as np
import pytest

from repro.core.bootstrap import bypass_for_histograms
from repro.utils.validation import ValidationError


class TestBypassForHistograms:
    def test_dimensions_follow_bin_count(self):
        instance = bypass_for_histograms(16)
        assert instance.query_dimension == 15
        assert instance.weight_dimension == 15

    def test_covers_boundary_histograms(self):
        instance = bypass_for_histograms(5)
        # All mass in one bin (including the dropped one).
        for bin_index in range(5):
            histogram = np.zeros(5)
            histogram[bin_index] = 1.0
            assert instance.tree.contains(histogram[:-1])

    def test_epsilon_forwarded(self):
        assert bypass_for_histograms(8, epsilon=0.3).epsilon == pytest.approx(0.3)

    def test_custom_weight_dimension(self):
        instance = bypass_for_histograms(8, weight_dimension=3)
        assert instance.weight_dimension == 3

    def test_rejects_single_bin(self):
        with pytest.raises(ValidationError):
            bypass_for_histograms(1)


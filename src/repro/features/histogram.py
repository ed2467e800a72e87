"""HSV colour-histogram extraction.

The paper's feature is a 32-bin histogram obtained by dividing the hue
channel into 8 ranges and the saturation channel into 4 ranges (Section 5).
:class:`HistogramExtractor` reproduces exactly that layout (bin index =
``hue_bin * n_saturation_bins + saturation_bin``) and normalises the result
so the bins sum to one — the property that later lets the query domain be a
simplex.
"""

from __future__ import annotations

import numpy as np

from repro.features.hsv import rgb_to_hsv
from repro.utils.validation import ValidationError, check_dimension


def histogram_from_hsv_pixels(hsv_pixels, n_hue_bins: int = 8, n_saturation_bins: int = 4) -> np.ndarray:
    """Build a normalised colour histogram from HSV pixels.

    Parameters
    ----------
    hsv_pixels:
        Array of shape ``(..., 3)`` with hue, saturation, value in ``[0, 1]``.
    n_hue_bins, n_saturation_bins:
        Histogram resolution; the paper uses 8 x 4 = 32 bins.
    """
    n_hue_bins = check_dimension(n_hue_bins, "n_hue_bins")
    n_saturation_bins = check_dimension(n_saturation_bins, "n_saturation_bins")
    pixels = np.asarray(hsv_pixels, dtype=np.float64).reshape(-1, 3)
    if pixels.shape[0] == 0:
        raise ValidationError("cannot build a histogram from zero pixels")
    if np.any(pixels < -1e-9) or np.any(pixels > 1.0 + 1e-9):
        raise ValidationError("HSV channels must lie in [0, 1]")

    hue_bins = np.minimum((pixels[:, 0] * n_hue_bins).astype(int), n_hue_bins - 1)
    saturation_bins = np.minimum(
        (pixels[:, 1] * n_saturation_bins).astype(int), n_saturation_bins - 1
    )
    flat = hue_bins * n_saturation_bins + saturation_bins
    counts = np.bincount(flat, minlength=n_hue_bins * n_saturation_bins).astype(np.float64)
    return counts / counts.sum()


class HistogramExtractor:
    """Extracts normalised HSV colour histograms from RGB images.

    Parameters
    ----------
    n_hue_bins:
        Number of hue ranges (paper: 8).
    n_saturation_bins:
        Number of saturation ranges (paper: 4).
    """

    def __init__(self, n_hue_bins: int = 8, n_saturation_bins: int = 4) -> None:
        self._n_hue_bins = check_dimension(n_hue_bins, "n_hue_bins")
        self._n_saturation_bins = check_dimension(n_saturation_bins, "n_saturation_bins")

    @property
    def n_bins(self) -> int:
        """Total number of histogram bins (hue bins x saturation bins)."""
        return self._n_hue_bins * self._n_saturation_bins

    @property
    def n_hue_bins(self) -> int:
        """Number of hue ranges."""
        return self._n_hue_bins

    @property
    def n_saturation_bins(self) -> int:
        """Number of saturation ranges."""
        return self._n_saturation_bins

    def bin_index(self, hue: float, saturation: float) -> int:
        """Return the flat bin index of a single (hue, saturation) pair."""
        if not (0.0 <= hue <= 1.0 and 0.0 <= saturation <= 1.0):
            raise ValidationError("hue and saturation must lie in [0, 1]")
        hue_bin = min(int(hue * self._n_hue_bins), self._n_hue_bins - 1)
        saturation_bin = min(int(saturation * self._n_saturation_bins), self._n_saturation_bins - 1)
        return hue_bin * self._n_saturation_bins + saturation_bin

    def extract_from_rgb(self, rgb_image) -> np.ndarray:
        """Extract the histogram of an RGB image (shape ``(H, W, 3)``, values in [0, 1])."""
        hsv = rgb_to_hsv(rgb_image)
        return self.extract_from_hsv(hsv)

    def extract_from_hsv(self, hsv_image) -> np.ndarray:
        """Extract the histogram of an HSV image (shape ``(H, W, 3)``, values in [0, 1])."""
        return histogram_from_hsv_pixels(
            hsv_image, n_hue_bins=self._n_hue_bins, n_saturation_bins=self._n_saturation_bins
        )

"""Feature substrate: the simulated IMSI image corpus and its colour features.

The paper evaluates on ~10,000 IMSI MasterPhotos colour images, represented
by 32-bin HSV colour histograms (8 hue ranges x 4 saturation ranges) and
annotated with semantic categories.  The data set is proprietary, so this
subpackage provides the closest synthetic equivalent that exercises the same
code paths:

* :mod:`repro.features.hsv` — RGB <-> HSV conversion,
* :mod:`repro.features.histogram` — the 8x4 HSV histogram extractor,
* :mod:`repro.features.synthetic_images` — a generator of small RGB images
  whose colour content follows per-category "themes" with heavy
  intra-category variance (the paper's "hard conceptual queries" regime),
* :mod:`repro.features.normalization` — histogram normalisation and the
  drop-last-bin embedding into the standard simplex (Example 1 / Section 4.1),
* :mod:`repro.features.datasets` — assembly of an IMSI-like corpus with the
  paper's category sizes (Bird 318, Fish 129, Mammal 834, Blossom 189,
  TreeLeaf 575, Bridge 148, Monument 298, plus noise images),
* :mod:`repro.features.synthetic` — seeded clustered corpora for the
  scan's byte-identity grids (no image pipeline; raw Gaussian-mixture
  geometry).
"""

from repro.features.datasets import (
    ImageDataset,
    ImageRecord,
    build_imsi_like_dataset,
    default_category_specs,
    IMSI_CATEGORY_SIZES,
)
from repro.features.histogram import HistogramExtractor, histogram_from_hsv_pixels
from repro.features.hsv import hsv_to_rgb, rgb_to_hsv
from repro.features.normalization import (
    drop_last_bin,
    normalize_histogram,
    restore_last_bin,
)
from repro.features.synthetic import (
    ClusteredCorpus,
    build_clustered_corpus,
    sample_queries,
)
from repro.features.synthetic_images import CategorySpec, ColorTheme, SyntheticImageGenerator

__all__ = [
    "ImageDataset",
    "ImageRecord",
    "build_imsi_like_dataset",
    "default_category_specs",
    "IMSI_CATEGORY_SIZES",
    "HistogramExtractor",
    "histogram_from_hsv_pixels",
    "hsv_to_rgb",
    "rgb_to_hsv",
    "drop_last_bin",
    "normalize_histogram",
    "restore_last_bin",
    "CategorySpec",
    "ColorTheme",
    "SyntheticImageGenerator",
    "ClusteredCorpus",
    "build_clustered_corpus",
    "sample_queries",
]

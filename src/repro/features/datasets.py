"""Assembly of the IMSI-like evaluation corpus.

The paper evaluates on 2,491 images from 7 categories of the IMSI
MasterPhotos collection (Bird 318, Fish 129, Mammal 834, Blossom 189,
TreeLeaf 575, Bridge 148, Monument 298); the remaining ~7,500 images act as
noise.  :func:`build_imsi_like_dataset` reproduces that structure with the
synthetic generator of :mod:`repro.features.synthetic_images`, at an
arbitrary scale so tests and benchmarks can use a smaller corpus while the
faithful configuration remains one argument away.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.features.histogram import HistogramExtractor, histogram_from_hsv_pixels
from repro.features.synthetic_images import (
    CategorySpec,
    ColorTheme,
    SyntheticImageGenerator,
)
from repro.utils.rng import derive_seed, ensure_rng
from repro.utils.validation import ValidationError, check_dimension, check_positive

#: Category sizes used by the paper's evaluation (Section 5).
IMSI_CATEGORY_SIZES: dict[str, int] = {
    "Bird": 318,
    "Fish": 129,
    "Mammal": 834,
    "Blossom": 189,
    "TreeLeaf": 575,
    "Bridge": 148,
    "Monument": 298,
}

#: Number of additional noise images (other IMSI categories) in the paper's
#: corpus: about 10,000 total minus the 2,491 evaluation images.
IMSI_NOISE_SIZE: int = 7509

#: Categories that only add noise to the retrieval process; queries are never
#: sampled from them.
NOISE_CATEGORY_NAMES: tuple[str, ...] = ("Sunset", "Cityscape", "Desert", "Ocean", "Interior")


def default_category_specs() -> dict[str, CategorySpec]:
    """Colour profiles for the 7 evaluation categories and the noise categories.

    Every category owns a pool of signature themes placed at distinct regions
    of hue/saturation space, with enough per-image theme sub-sampling and
    distractor mixing that colour alone cannot cleanly separate the
    categories — the regime the paper's "hard conceptual queries" live in.
    """
    specs = {
        "Bird": CategorySpec(
            name="Bird",
            signature_themes=(
                ColorTheme(hue=0.58, saturation=0.55, value=0.80),  # sky blue
                ColorTheme(hue=0.10, saturation=0.70, value=0.65),  # brown plumage
                ColorTheme(hue=0.02, saturation=0.85, value=0.75),  # red plumage
                ColorTheme(hue=0.15, saturation=0.15, value=0.95),  # white feathers
            ),
        ),
        "Fish": CategorySpec(
            name="Fish",
            signature_themes=(
                ColorTheme(hue=0.60, saturation=0.80, value=0.55),  # deep water blue
                ColorTheme(hue=0.13, saturation=0.90, value=0.85),  # tropical yellow
                ColorTheme(hue=0.05, saturation=0.80, value=0.80),  # orange
                ColorTheme(hue=0.50, saturation=0.30, value=0.60),  # grey-green water
            ),
        ),
        "Mammal": CategorySpec(
            name="Mammal",
            signature_themes=(
                ColorTheme(hue=0.09, saturation=0.60, value=0.55),  # brown fur
                ColorTheme(hue=0.11, saturation=0.45, value=0.75),  # tan savanna
                ColorTheme(hue=0.08, saturation=0.20, value=0.35),  # dark grey hide
                ColorTheme(hue=0.25, saturation=0.55, value=0.45),  # grassland
            ),
        ),
        "Blossom": CategorySpec(
            name="Blossom",
            signature_themes=(
                ColorTheme(hue=0.92, saturation=0.65, value=0.90),  # pink petals
                ColorTheme(hue=0.14, saturation=0.85, value=0.90),  # yellow centre
                ColorTheme(hue=0.33, saturation=0.65, value=0.55),  # green stems
                ColorTheme(hue=0.78, saturation=0.55, value=0.80),  # violet petals
            ),
        ),
        "TreeLeaf": CategorySpec(
            name="TreeLeaf",
            signature_themes=(
                ColorTheme(hue=0.30, saturation=0.75, value=0.55),  # leaf green
                ColorTheme(hue=0.22, saturation=0.80, value=0.65),  # yellow-green
                ColorTheme(hue=0.36, saturation=0.55, value=0.35),  # dark green
                ColorTheme(hue=0.08, saturation=0.75, value=0.60),  # autumn orange
            ),
        ),
        "Bridge": CategorySpec(
            name="Bridge",
            signature_themes=(
                ColorTheme(hue=0.08, saturation=0.15, value=0.55),  # concrete grey
                ColorTheme(hue=0.58, saturation=0.45, value=0.75),  # sky backdrop
                ColorTheme(hue=0.03, saturation=0.70, value=0.50),  # rust red steel
                ColorTheme(hue=0.60, saturation=0.60, value=0.40),  # dark river water
            ),
        ),
        "Monument": CategorySpec(
            name="Monument",
            signature_themes=(
                ColorTheme(hue=0.12, saturation=0.30, value=0.80),  # sandstone
                ColorTheme(hue=0.10, saturation=0.10, value=0.90),  # white marble
                ColorTheme(hue=0.58, saturation=0.50, value=0.70),  # sky backdrop
                ColorTheme(hue=0.09, saturation=0.45, value=0.45),  # weathered bronze
            ),
        ),
    }
    noise_specs = {
        "Sunset": CategorySpec(
            name="Sunset",
            signature_themes=(
                ColorTheme(hue=0.04, saturation=0.85, value=0.85),
                ColorTheme(hue=0.95, saturation=0.70, value=0.65),
                ColorTheme(hue=0.12, saturation=0.75, value=0.80),
            ),
        ),
        "Cityscape": CategorySpec(
            name="Cityscape",
            signature_themes=(
                ColorTheme(hue=0.60, saturation=0.20, value=0.50),
                ColorTheme(hue=0.08, saturation=0.10, value=0.70),
                ColorTheme(hue=0.55, saturation=0.35, value=0.30),
            ),
        ),
        "Desert": CategorySpec(
            name="Desert",
            signature_themes=(
                ColorTheme(hue=0.11, saturation=0.55, value=0.85),
                ColorTheme(hue=0.09, saturation=0.40, value=0.70),
                ColorTheme(hue=0.58, saturation=0.65, value=0.85),
            ),
        ),
        "Ocean": CategorySpec(
            name="Ocean",
            signature_themes=(
                ColorTheme(hue=0.55, saturation=0.75, value=0.65),
                ColorTheme(hue=0.50, saturation=0.45, value=0.85),
                ColorTheme(hue=0.62, saturation=0.85, value=0.45),
            ),
        ),
        "Interior": CategorySpec(
            name="Interior",
            signature_themes=(
                ColorTheme(hue=0.09, saturation=0.35, value=0.60),
                ColorTheme(hue=0.13, saturation=0.20, value=0.85),
                ColorTheme(hue=0.85, saturation=0.30, value=0.45),
            ),
        ),
    }
    specs.update(noise_specs)
    return specs


@dataclass(frozen=True)
class ImageRecord:
    """Metadata of one synthetic image."""

    identifier: int
    category: str
    is_noise: bool


@dataclass
class ImageDataset:
    """A corpus of colour-histogram features with category labels.

    Attributes
    ----------
    features:
        ``(n_images, n_bins)`` matrix of normalised histograms.
    records:
        One :class:`ImageRecord` per row of ``features``.
    n_hue_bins, n_saturation_bins:
        Histogram layout used to extract the features.
    """

    features: np.ndarray
    records: list[ImageRecord]
    n_hue_bins: int
    n_saturation_bins: int
    _category_index: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=np.float64)
        if features.ndim != 2:
            raise ValidationError("features must be a 2-D matrix")
        if features.shape[0] != len(self.records):
            raise ValidationError("features and records must have the same length")
        if features.shape[1] != self.n_hue_bins * self.n_saturation_bins:
            raise ValidationError("features width must equal n_hue_bins * n_saturation_bins")
        self.features = features
        categories: dict[str, list[int]] = {}
        for row, record in enumerate(self.records):
            categories.setdefault(record.category, []).append(row)
        object.__setattr__(
            self,
            "_category_index",
            {name: np.asarray(rows, dtype=np.intp) for name, rows in categories.items()},
        )

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def n_bins(self) -> int:
        """Number of histogram bins per image."""
        return int(self.features.shape[1])

    @property
    def categories(self) -> list[str]:
        """Sorted list of category names present in the corpus."""
        return sorted(self._category_index)

    @property
    def evaluation_categories(self) -> list[str]:
        """Categories queries are sampled from (noise categories excluded)."""
        return sorted(
            {record.category for record in self.records if not record.is_noise}
        )

    def category_of(self, index: int) -> str:
        """Return the category label of image ``index``."""
        return self.records[index].category

    def indices_of_category(self, category: str) -> np.ndarray:
        """Return the row indices of every image in ``category``."""
        if category not in self._category_index:
            raise ValidationError(f"unknown category {category!r}")
        return self._category_index[category].copy()

    def category_size(self, category: str) -> int:
        """Return the number of images in ``category``."""
        return int(self.indices_of_category(category).shape[0])

    # ------------------------------------------------------------------ #
    # Query sampling
    # ------------------------------------------------------------------ #
    def sample_query_indices(self, n_queries: int, rng, *, categories: list[str] | None = None) -> np.ndarray:
        """Sample image indices to use as queries (evaluation categories only).

        Sampling is uniform over images, which matches the paper's protocol of
        randomly sampling queries from the 2,491 evaluation images (so larger
        categories contribute more queries).
        """
        rng = ensure_rng(rng)
        if categories is None:
            categories = self.evaluation_categories
        pool = np.concatenate([self.indices_of_category(name) for name in categories])
        if pool.size == 0:
            raise ValidationError("no images available in the requested categories")
        return rng.choice(pool, size=int(n_queries), replace=True)


def build_imsi_like_dataset(
    *,
    scale: float = 1.0,
    n_hue_bins: int = 8,
    n_saturation_bins: int = 4,
    pixels_per_image: int = 400,
    noise_images: int | None = None,
    seed: int = 0,
    use_rgb_pipeline: bool = False,
) -> ImageDataset:
    """Build the synthetic IMSI-like corpus.

    Parameters
    ----------
    scale:
        Multiplier on the paper's category sizes; ``scale=1.0`` reproduces
        the 2,491-image evaluation set, smaller values give proportionally
        smaller corpora for tests and benchmarks (each category keeps at
        least 8 images).
    n_hue_bins, n_saturation_bins:
        Histogram layout (paper: 8 x 4).
    pixels_per_image:
        Number of HSV pixel samples per image.
    noise_images:
        Number of extra noise images; defaults to 50% of the evaluation-set
        size (the full paper proportion of ~3x would dominate runtime without
        changing the qualitative behaviour; pass ``IMSI_NOISE_SIZE`` for the
        faithful corpus).
    seed:
        Seed controlling the whole corpus.
    use_rgb_pipeline:
        When true, render full RGB images and extract features through
        :class:`~repro.features.histogram.HistogramExtractor` (slower, used to
        validate that both paths agree); otherwise histograms are built
        directly from sampled HSV pixels.
    """
    check_positive(scale, name="scale")
    check_dimension(pixels_per_image, "pixels_per_image", minimum=16)
    specs = default_category_specs()
    generator = SyntheticImageGenerator()
    extractor = HistogramExtractor(n_hue_bins=n_hue_bins, n_saturation_bins=n_saturation_bins)

    category_sizes = {
        name: max(8, int(round(size * scale))) for name, size in IMSI_CATEGORY_SIZES.items()
    }
    evaluation_total = sum(category_sizes.values())
    if noise_images is None:
        noise_images = max(0, int(round(0.5 * evaluation_total)))

    features: list[np.ndarray] = []
    records: list[ImageRecord] = []
    identifier = 0

    def _append_images(category: str, count: int, is_noise: bool) -> None:
        nonlocal identifier
        spec = specs[category]
        rng = ensure_rng(derive_seed(seed, "category", category))
        for _ in range(count):
            if use_rgb_pipeline:
                image = generator.render_rgb_image(spec, rng)
                histogram = extractor.extract_from_rgb(image)
            else:
                pixels = generator.sample_hsv_pixels(spec, pixels_per_image, rng)
                histogram = histogram_from_hsv_pixels(
                    pixels, n_hue_bins=n_hue_bins, n_saturation_bins=n_saturation_bins
                )
            features.append(histogram)
            records.append(ImageRecord(identifier=identifier, category=category, is_noise=is_noise))
            identifier += 1

    for category, count in category_sizes.items():
        _append_images(category, count, is_noise=False)

    if noise_images > 0:
        per_noise_category = [
            noise_images // len(NOISE_CATEGORY_NAMES)
            + (1 if index < noise_images % len(NOISE_CATEGORY_NAMES) else 0)
            for index in range(len(NOISE_CATEGORY_NAMES))
        ]
        for category, count in zip(NOISE_CATEGORY_NAMES, per_noise_category):
            _append_images(category, count, is_noise=True)

    return ImageDataset(
        features=np.vstack(features),
        records=records,
        n_hue_bins=n_hue_bins,
        n_saturation_bins=n_saturation_bins,
    )

"""Tests for repro.features.datasets."""

import numpy as np
import pytest

from repro.features.datasets import (
    IMSI_CATEGORY_SIZES,
    ImageDataset,
    ImageRecord,
    build_imsi_like_dataset,
    default_category_specs,
)
from repro.utils.validation import ValidationError


class TestDefaultCategorySpecs:
    def test_contains_all_paper_categories(self):
        specs = default_category_specs()
        for category in IMSI_CATEGORY_SIZES:
            assert category in specs

    def test_contains_noise_categories(self):
        specs = default_category_specs()
        assert "Sunset" in specs and "Ocean" in specs

    def test_paper_category_sizes(self):
        # Section 5: Bird 318, Fish 129, Mammal 834, Blossom 189,
        # TreeLeaf 575, Bridge 148, Monument 298 (2,491 in total).
        assert IMSI_CATEGORY_SIZES["Mammal"] == 834
        assert IMSI_CATEGORY_SIZES["Fish"] == 129
        assert sum(IMSI_CATEGORY_SIZES.values()) == 2491


class TestBuildDataset:
    def test_scaled_sizes(self, tiny_dataset):
        for category in IMSI_CATEGORY_SIZES:
            assert tiny_dataset.category_size(category) >= 8

    def test_features_are_normalised_histograms(self, tiny_dataset):
        sums = tiny_dataset.features.sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)
        assert np.all(tiny_dataset.features >= 0.0)

    def test_bin_count_matches_layout(self, tiny_dataset, small_dataset):
        assert tiny_dataset.n_bins == 16
        assert small_dataset.n_bins == 32

    def test_reproducible_with_same_seed(self):
        first = build_imsi_like_dataset(scale=0.02, seed=5, pixels_per_image=64)
        second = build_imsi_like_dataset(scale=0.02, seed=5, pixels_per_image=64)
        np.testing.assert_allclose(first.features, second.features)

    def test_different_seed_changes_corpus(self):
        first = build_imsi_like_dataset(scale=0.02, seed=5, pixels_per_image=64)
        second = build_imsi_like_dataset(scale=0.02, seed=6, pixels_per_image=64)
        assert not np.allclose(first.features, second.features)

    def test_noise_images_flagged(self, tiny_dataset):
        noise_records = [record for record in tiny_dataset.records if record.is_noise]
        assert noise_records
        assert all(record.category not in IMSI_CATEGORY_SIZES for record in noise_records)

    def test_noise_can_be_disabled(self):
        dataset = build_imsi_like_dataset(scale=0.02, noise_images=0, pixels_per_image=64, seed=1)
        assert all(not record.is_noise for record in dataset.records)

    def test_rgb_pipeline_agrees_statistically(self):
        direct = build_imsi_like_dataset(scale=0.02, seed=9, pixels_per_image=256, noise_images=0)
        via_rgb = build_imsi_like_dataset(
            scale=0.02, seed=9, pixels_per_image=256, noise_images=0, use_rgb_pipeline=True
        )
        # Same corpus structure; per-category mean histograms should be close
        # even though the RGB path quantises pixels into an image grid.
        for category in ("Mammal", "Fish"):
            direct_mean = direct.features[direct.indices_of_category(category)].mean(axis=0)
            rgb_mean = via_rgb.features[via_rgb.indices_of_category(category)].mean(axis=0)
            assert np.abs(direct_mean - rgb_mean).max() < 0.12

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValidationError):
            build_imsi_like_dataset(scale=0.0)


class TestImageDatasetAccessors:
    def test_category_of_matches_records(self, tiny_dataset):
        for index in (0, 10, len(tiny_dataset.records) - 1):
            assert tiny_dataset.category_of(index) == tiny_dataset.records[index].category

    def test_indices_of_category_consistent(self, tiny_dataset):
        indices = tiny_dataset.indices_of_category("Bird")
        assert all(tiny_dataset.category_of(int(i)) == "Bird" for i in indices)

    def test_unknown_category_raises(self, tiny_dataset):
        with pytest.raises(ValidationError):
            tiny_dataset.indices_of_category("Dinosaur")

    def test_evaluation_categories_exclude_noise(self, tiny_dataset):
        assert set(tiny_dataset.evaluation_categories) == set(IMSI_CATEGORY_SIZES)

    def test_sample_query_indices_only_evaluation_categories(self, tiny_dataset):
        rng = np.random.default_rng(0)
        indices = tiny_dataset.sample_query_indices(100, rng)
        assert len(indices) == 100
        for index in indices:
            assert not tiny_dataset.records[int(index)].is_noise

    def test_sample_query_indices_specific_category(self, tiny_dataset):
        rng = np.random.default_rng(1)
        indices = tiny_dataset.sample_query_indices(20, rng, categories=["Fish"])
        assert all(tiny_dataset.category_of(int(i)) == "Fish" for i in indices)

    def test_constructor_validates_shapes(self):
        with pytest.raises(ValidationError):
            ImageDataset(
                features=np.ones((2, 16)) / 16,
                records=[ImageRecord(0, "Bird", False)],
                n_hue_bins=4,
                n_saturation_bins=4,
            )

    def test_constructor_validates_bin_count(self):
        with pytest.raises(ValidationError):
            ImageDataset(
                features=np.ones((1, 10)) / 10,
                records=[ImageRecord(0, "Bird", False)],
                n_hue_bins=4,
                n_saturation_bins=4,
            )

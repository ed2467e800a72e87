"""Tests for repro.database.collection."""

import numpy as np
import pytest

from repro.database.collection import FeatureCollection
from repro.utils.validation import ValidationError


@pytest.fixture()
def labelled_collection() -> FeatureCollection:
    vectors = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    return FeatureCollection(vectors, labels=["a", "b", "a", "b"])


class TestConstruction:
    def test_size_and_dimension(self, labelled_collection):
        assert labelled_collection.size == 4
        assert labelled_collection.dimension == 2
        assert len(labelled_collection) == 4

    def test_vectors_are_read_only(self, labelled_collection):
        with pytest.raises(ValueError):
            labelled_collection.vectors[0, 0] = 5.0

    def test_vectors_are_copied(self):
        source = np.zeros((2, 2))
        collection = FeatureCollection(source)
        source[0, 0] = 7.0
        assert collection.vectors[0, 0] == 0.0

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            FeatureCollection(np.zeros((0, 3)))

    def test_rejects_label_mismatch(self):
        with pytest.raises(ValidationError):
            FeatureCollection(np.zeros((2, 2)), labels=["only one"])

    def test_unlabelled_collection(self):
        collection = FeatureCollection(np.zeros((2, 2)))
        assert collection.labels is None
        with pytest.raises(ValidationError):
            collection.label(0)


class TestAccessors:
    def test_vector_returns_copy(self, labelled_collection):
        vector = labelled_collection.vector(1)
        vector[0] = 42.0
        assert labelled_collection.vectors[1, 0] == 1.0

    def test_vector_out_of_range(self, labelled_collection):
        with pytest.raises(ValidationError):
            labelled_collection.vector(10)

    def test_label(self, labelled_collection):
        assert labelled_collection.label(2) == "a"

    def test_indices_with_label(self, labelled_collection):
        np.testing.assert_array_equal(labelled_collection.indices_with_label("a"), [0, 2])
        assert labelled_collection.indices_with_label("missing").shape == (0,)

    def test_labels_of_matches_per_index_lookup(self, labelled_collection):
        indices = [3, 0, 0, 2]
        assert labelled_collection.labels_of(indices) == [
            labelled_collection.label(index) for index in indices
        ]
        assert labelled_collection.labels_of([]) == []

    def test_labels_of_validates(self, labelled_collection):
        with pytest.raises(ValidationError):
            labelled_collection.labels_of([0, 4])
        with pytest.raises(ValidationError):
            labelled_collection.labels_of([-1])
        with pytest.raises(ValidationError):
            labelled_collection.labels_of([1.9])  # no silent truncation
        with pytest.raises(ValidationError):
            FeatureCollection(np.zeros((2, 2))).labels_of([0])

    def test_validate_query_point(self, labelled_collection):
        point = labelled_collection.validate_query_point([0.5, 0.5])
        assert point.shape == (2,)
        with pytest.raises(ValidationError):
            labelled_collection.validate_query_point([0.5])

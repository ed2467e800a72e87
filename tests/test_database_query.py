"""Tests for repro.database.query."""

import numpy as np
import pytest

from repro.database.query import ResultItem, ResultSet
from repro.utils.validation import ValidationError


class TestResultSet:
    def test_from_arrays(self):
        results = ResultSet.from_arrays([3, 1, 2], [0.1, 0.2, 0.3])
        assert len(results) == 3
        np.testing.assert_array_equal(results.indices(), [3, 1, 2])
        np.testing.assert_allclose(results.distances(), [0.1, 0.2, 0.3])

    def test_iteration_and_indexing(self):
        results = ResultSet.from_arrays([5, 6], [0.0, 1.0])
        assert [item.index for item in results] == [5, 6]
        assert results[1].distance == pytest.approx(1.0)

    def test_requires_sorted_distances(self):
        with pytest.raises(ValidationError):
            ResultSet(items=(ResultItem(0, 1.0), ResultItem(1, 0.5)))

    def test_same_objects_true_for_identical_order(self):
        first = ResultSet.from_arrays([1, 2, 3], [0.1, 0.2, 0.3])
        second = ResultSet.from_arrays([1, 2, 3], [0.15, 0.25, 0.35])
        assert first.same_objects(second)

    def test_same_objects_false_for_different_order(self):
        first = ResultSet.from_arrays([1, 2, 3], [0.1, 0.2, 0.3])
        second = ResultSet.from_arrays([1, 3, 2], [0.1, 0.2, 0.3])
        assert not first.same_objects(second)

    def test_same_objects_false_for_different_length(self):
        first = ResultSet.from_arrays([1, 2], [0.1, 0.2])
        second = ResultSet.from_arrays([1, 2, 3], [0.1, 0.2, 0.3])
        assert not first.same_objects(second)

    def test_empty_result_set(self):
        results = ResultSet()
        assert len(results) == 0
        assert results.indices().shape == (0,)

    def test_from_arrays_rejects_mismatched_shapes(self):
        with pytest.raises(ValidationError):
            ResultSet.from_arrays([1, 2], [0.1])

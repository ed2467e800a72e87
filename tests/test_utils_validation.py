"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    ValidationError,
    as_float_matrix,
    as_float_vector,
    check_dimension,
    check_in_range,
    check_positive,
)


class TestAsFloatVector:
    def test_converts_list_to_float64(self):
        result = as_float_vector([1, 2, 3])
        assert result.dtype == np.float64
        np.testing.assert_allclose(result, [1.0, 2.0, 3.0])

    def test_accepts_existing_array(self):
        array = np.array([0.5, 1.5])
        np.testing.assert_allclose(as_float_vector(array), array)

    def test_rejects_matrix(self):
        with pytest.raises(ValidationError):
            as_float_vector([[1, 2], [3, 4]])

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValidationError, match="dimension 4"):
            as_float_vector([1, 2, 3], dim=4)

    def test_accepts_correct_dimension(self):
        assert as_float_vector([1, 2, 3], dim=3).shape == (3,)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="non-finite"):
            as_float_vector([1.0, np.nan])

    def test_rejects_infinity(self):
        with pytest.raises(ValidationError, match="non-finite"):
            as_float_vector([np.inf, 0.0])

    def test_error_message_uses_name(self):
        with pytest.raises(ValidationError, match="query point"):
            as_float_vector([[1]], name="query point")

    def test_rejects_non_numeric_entries(self):
        with pytest.raises(ValidationError, match="weights must be numeric"):
            as_float_vector(["a", "b"], name="weights")


class TestAsFloatMatrix:
    def test_converts_nested_list(self):
        result = as_float_matrix([[1, 2], [3, 4]])
        assert result.shape == (2, 2)
        assert result.dtype == np.float64

    def test_rejects_vector(self):
        with pytest.raises(ValidationError):
            as_float_matrix([1, 2, 3])

    def test_rejects_wrong_rows(self):
        with pytest.raises(ValidationError, match="rows"):
            as_float_matrix([[1, 2]], shape=(2, None))

    def test_rejects_wrong_columns(self):
        with pytest.raises(ValidationError, match="columns"):
            as_float_matrix([[1, 2]], shape=(None, 3))

    def test_accepts_partial_shape(self):
        assert as_float_matrix([[1, 2], [3, 4]], shape=(None, 2)).shape == (2, 2)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            as_float_matrix([[np.nan, 1.0]])

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValidationError, match="must be numeric"):
            as_float_matrix([[1.0, 2.0], [3.0]])


class TestCheckDimension:
    def test_accepts_positive_integer(self):
        assert check_dimension(5) == 5

    def test_accepts_integer_valued_float(self):
        assert check_dimension(3.0) == 3

    def test_rejects_fractional(self):
        with pytest.raises(ValidationError):
            check_dimension(2.5)

    def test_rejects_zero_by_default(self):
        with pytest.raises(ValidationError):
            check_dimension(0)

    def test_custom_minimum(self):
        assert check_dimension(0, minimum=0) == 0
        with pytest.raises(ValidationError):
            check_dimension(1, minimum=2)

    def test_accepts_numpy_integers(self):
        assert check_dimension(np.int64(4)) == 4

    @pytest.mark.parametrize(
        "value",
        [True, False, np.bool_(True), None, "3", float("inf"), float("-inf"), float("nan"), np.float64("nan")],
        ids=repr,
    )
    def test_rejects_values_that_are_not_counts(self, value):
        with pytest.raises(ValidationError):
            check_dimension(value, minimum=0)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(1.5) == 1.5

    def test_rejects_zero_when_strict(self):
        with pytest.raises(ValidationError):
            check_positive(0.0)

    def test_accepts_zero_when_not_strict(self):
        assert check_positive(0.0, strict=False) == 0.0

    def test_rejects_negative_even_when_not_strict(self):
        with pytest.raises(ValidationError):
            check_positive(-0.1, strict=False)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            check_positive(float("nan"))

    def test_rejects_infinity(self):
        with pytest.raises(ValidationError, match="finite"):
            check_positive(float("inf"))


class TestCheckInRange:
    def test_accepts_inside(self):
        assert check_in_range(0.5, 0.0, 1.0) == 0.5

    def test_accepts_boundaries(self):
        assert check_in_range(0.0, 0.0, 1.0) == 0.0
        assert check_in_range(1.0, 0.0, 1.0) == 1.0

    def test_rejects_outside(self):
        with pytest.raises(ValidationError):
            check_in_range(1.5, 0.0, 1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            check_in_range(float("nan"), 0.0, 1.0)

    def test_error_message_uses_name(self):
        with pytest.raises(ValidationError, match="repeat_rate"):
            check_in_range(-0.1, 0.0, 1.0, name="repeat_rate")

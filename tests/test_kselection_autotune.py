"""The measured argpartition-vs-heap crossover of ``k_smallest``.

The two selection strategies must be bit-identical (the autotuner's choice
is then unobservable in results), decisions must be cached per magnitude
bucket, and shapes above the heap ceiling must skip calibration entirely.
"""

import numpy as np
import pytest

from repro.database.index import (
    KSelectionAutotuner,
    k_selection_autotuner,
    k_smallest,
)
from repro.utils.validation import ValidationError


def strategies_agree(distances, k, labels=None):
    argpartition = k_smallest(distances, k, labels, strategy="argpartition")
    heap = k_smallest(distances, k, labels, strategy="heap")
    np.testing.assert_array_equal(argpartition[0], heap[0])
    np.testing.assert_array_equal(argpartition[1], heap[1])
    assert argpartition[1].dtype == heap[1].dtype
    return argpartition


class TestStrategyEquivalence:
    @pytest.mark.parametrize("n,k", [(1, 1), (10, 3), (500, 1), (500, 499), (2048, 64)])
    def test_random_inputs(self, n, k):
        rng = np.random.default_rng(n * 1000 + k)
        strategies_agree(rng.random(n), k)

    def test_dense_ties(self):
        distances = np.repeat([0.5, 0.25, 0.75], 40).astype(np.float64)
        labels, ordered = strategies_agree(distances, 10)
        # Ties break by ascending label: the ten smallest are the first ten
        # positions holding the 0.25 plateau.
        np.testing.assert_array_equal(labels, np.arange(40, 50))
        assert np.all(ordered == 0.25)

    def test_all_equal(self):
        strategies_agree(np.full(100, 3.25), 7)

    def test_float32_input(self):
        rng = np.random.default_rng(3)
        distances = rng.random(300).astype(np.float32)
        _, ordered = strategies_agree(distances, 12)
        assert ordered.dtype == np.float32

    def test_explicit_labels(self):
        rng = np.random.default_rng(4)
        labels = rng.permutation(200)
        strategies_agree(rng.random(200), 9, labels)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValidationError):
            k_smallest(np.random.default_rng(0).random(50), 5, strategy="quickselect")


class TestAutotuner:
    def test_decision_is_calibrated_once_per_bucket(self):
        tuner = KSelectionAutotuner()
        first = tuner.choose(1000, 10)
        assert first in ("argpartition", "heap")
        assert len(tuner.decisions()) == 1
        # Same magnitude bucket (bit lengths): no new calibration entry.
        assert tuner.choose(900, 12) == first
        assert len(tuner.decisions()) == 1
        # A different bucket calibrates separately.
        tuner.choose(100, 2)
        assert len(tuner.decisions()) == 2

    def test_heap_ceiling_short_circuits(self):
        tuner = KSelectionAutotuner()
        assert tuner.choose(KSelectionAutotuner.HEAP_CEILING + 1, 10) == "argpartition"
        assert tuner.decisions() == {}, "shapes above the ceiling must not calibrate"

    def test_process_wide_instance_is_shared_and_consulted(self):
        tuner = k_selection_autotuner()
        assert tuner is k_selection_autotuner()
        rng = np.random.default_rng(8)
        distances = rng.random(700)
        tuned = k_smallest(distances, 6)
        pinned = k_smallest(distances, 6, strategy="argpartition")
        np.testing.assert_array_equal(tuned[0], pinned[0])
        np.testing.assert_array_equal(tuned[1], pinned[1])
        assert (700 .bit_length(), 6 .bit_length()) in tuner.decisions()

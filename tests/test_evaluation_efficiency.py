"""Tests for repro.evaluation.efficiency."""

import numpy as np
import pytest

from repro.evaluation.efficiency import saved_cycles_experiment


@pytest.fixture(scope="module")
def efficiency_result(tiny_dataset):
    return saved_cycles_experiment(
        tiny_dataset,
        k_values=(5, 10),
        n_queries=30,
        checkpoint_every=10,
        warmup_queries=10,
        epsilon=0.05,
        seed=11,
    )


class TestSavedCycles:
    def test_result_shapes(self, efficiency_result):
        assert efficiency_result.saved_cycles.shape == (
            len(efficiency_result.k_values),
            len(efficiency_result.checkpoints),
        )
        assert efficiency_result.saved_objects.shape == efficiency_result.saved_cycles.shape

    def test_checkpoints_respect_warmup(self, efficiency_result):
        assert np.all(efficiency_result.checkpoints > 10)

    def test_savings_are_signed_and_losses_counted(self, efficiency_result):
        # A saving is negative only where some query lost, and the lost
        # share is a share of the block.
        lost = efficiency_result.lost_share
        assert np.all((lost >= 0.0) & (lost <= 1.0))
        assert np.all(efficiency_result.saved_cycles[lost == 0.0] >= 0.0)
        assert np.all(efficiency_result.saved_cycles >= -10.0)

    def test_saved_objects_is_cycles_times_k(self, efficiency_result):
        for row, k in enumerate(efficiency_result.k_values):
            np.testing.assert_allclose(
                efficiency_result.saved_objects[row],
                efficiency_result.saved_cycles[row] * int(k),
                atol=1e-9,
            )

    def test_saved_cycles_bounded_by_iteration_budget(self, efficiency_result):
        # A session cannot save more iterations than the default loop uses.
        assert np.all(efficiency_result.saved_cycles <= 10.0)

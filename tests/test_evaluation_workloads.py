"""Tests for repro.evaluation.workloads."""

import numpy as np
import pytest

from repro.evaluation.workloads import repeat_rate_benefit, repeated_query_workload
from repro.utils.validation import ValidationError


def _interleaves_fresh_prefix(workload, fresh) -> bool:
    """Whether ``workload`` is a prefix of ``fresh`` with repeats interleaved.

    A repeat is a query equal to one of the fresh queries already issued; the
    set of reachable prefix lengths is tracked because a repeat may equal
    the next fresh query by chance.
    """
    fresh = [int(query) for query in fresh]
    reachable = {0}
    for query in (int(query) for query in workload):
        reachable = {
            length + 1 for length in reachable if length < len(fresh) and fresh[length] == query
        } | {length for length in reachable if query in fresh[:length]}
        if not reachable:
            return False
    return True


class TestRepeatedQueryWorkload:
    def test_zero_rate_has_no_forced_repeats(self, tiny_dataset):
        workload = repeated_query_workload(tiny_dataset, 60, repeat_rate=0.0, seed=5)
        assert workload.shape == (60,)

    def test_high_rate_produces_many_repeats(self, tiny_dataset):
        workload = repeated_query_workload(tiny_dataset, 200, repeat_rate=0.8, seed=6)
        n_unique = len(np.unique(workload))
        assert n_unique < 0.6 * len(workload)

    def test_higher_rate_means_fewer_distinct_queries(self, tiny_dataset):
        low = repeated_query_workload(tiny_dataset, 200, repeat_rate=0.1, seed=7)
        high = repeated_query_workload(tiny_dataset, 200, repeat_rate=0.9, seed=7)
        assert len(np.unique(high)) <= len(np.unique(low))

    def test_rates_share_one_fresh_query_stream(self, tiny_dataset):
        # Every rate issues the rate-0 stream's queries in order; the other
        # positions repeat a query already issued.
        fresh = repeated_query_workload(tiny_dataset, 120, repeat_rate=0.0, seed=11)
        for rate in (0.25, 0.5, 0.9):
            workload = repeated_query_workload(tiny_dataset, 120, repeat_rate=rate, seed=11)
            assert _interleaves_fresh_prefix(workload, fresh), rate

    def test_invalid_rate_rejected(self, tiny_dataset):
        with pytest.raises(ValidationError):
            repeated_query_workload(tiny_dataset, 10, repeat_rate=1.5)

    def test_deterministic(self, tiny_dataset):
        first = repeated_query_workload(tiny_dataset, 40, repeat_rate=0.5, seed=8)
        second = repeated_query_workload(tiny_dataset, 40, repeat_rate=0.5, seed=8)
        np.testing.assert_array_equal(first, second)

    def test_only_evaluation_categories(self, tiny_dataset):
        workload = repeated_query_workload(tiny_dataset, 80, repeat_rate=0.5, seed=2)
        assert all(not tiny_dataset.records[int(index)].is_noise for index in workload)

    def test_repeats_come_from_the_working_set(self, tiny_dataset):
        # A query that is not the next fresh one is one of the last
        # ``working_set_size`` fresh queries already issued.
        working_set_size = 3
        fresh = [int(query) for query in repeated_query_workload(tiny_dataset, 150, repeat_rate=0.0, seed=9)]
        workload = repeated_query_workload(
            tiny_dataset, 150, repeat_rate=0.6, working_set_size=working_set_size, seed=9
        )
        issued = 0
        for query in (int(query) for query in workload):
            if query == fresh[issued]:
                issued += 1
            else:
                assert query in fresh[max(0, issued - working_set_size):issued]
        assert issued < len(workload)

    @pytest.mark.parametrize(
        "options",
        [{"n_queries": 0}, {"working_set_size": 0}, {"repeat_rate": -0.1}],
        ids=["no-queries", "empty-working-set", "negative-rate"],
    )
    def test_invalid_sizes_rejected(self, tiny_dataset, options):
        arguments = {"n_queries": 10, **options}
        with pytest.raises(ValidationError):
            repeated_query_workload(tiny_dataset, arguments.pop("n_queries"), **arguments)


class TestRepeatRateBenefit:
    def test_result_shapes_and_ranges(self, tiny_dataset):
        result = repeat_rate_benefit(
            tiny_dataset, repeat_rates=(0.0, 0.6), n_queries=40, k=10, seed=9
        )
        assert result.repeat_rates.shape == (2,)
        for series in (result.bypass_precision, result.default_precision, result.already_seen_precision):
            assert series.shape == (2,)
            assert np.all((series >= 0.0) & (series <= 1.0))
        for series in (result.default_loop_iterations, result.bypass_loop_iterations):
            assert series.shape == (2,)
            assert np.all(series >= 1.0)

    def test_repetition_does_not_hurt_bypass_advantage(self, tiny_dataset):
        result = repeat_rate_benefit(
            tiny_dataset, repeat_rates=(0.0, 0.7), n_queries=60, k=10, seed=10
        )
        advantage = result.bypass_precision - result.default_precision
        # With many repeated queries the predictions are exact for a large
        # share of the stream, so the advantage should not shrink.
        assert advantage[1] >= advantage[0] - 0.05

"""Property-based tests for the Simplex Tree and FeedbackBypass core."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bypass import FeedbackBypass
from repro.core.oqp import OptimalQueryParameters
from repro.core.simplex_tree import SimplexTree
from repro.geometry.bounding import standard_simplex_vertices, unit_cube_root_vertices
from repro.features.normalization import drop_last_bin
from repro.features.histogram import histogram_from_hsv_pixels


class TestSimplexTreeProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=25),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_stored_points_predict_exactly(self, dimension, n_points, seed):
        tree = SimplexTree(
            unit_cube_root_vertices(dimension, margin=1e-9),
            value_dimension=3,
            epsilon=0.0,
        )
        rng = np.random.default_rng(seed)
        stored = []
        for point in rng.random((n_points, dimension)) * 0.9 + 0.05:
            value = rng.normal(size=3)
            outcome = tree.insert(point, value)
            if outcome.stored:
                stored.append((point, value))
        for point, value in stored:
            np.testing.assert_allclose(tree.predict(point), value, atol=1e-7)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=1, max_value=25),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_predictions_are_finite_everywhere(self, dimension, n_points, seed):
        tree = SimplexTree(
            unit_cube_root_vertices(dimension, margin=1e-9), value_dimension=2, epsilon=0.0
        )
        rng = np.random.default_rng(seed)
        for point in rng.random((n_points, dimension)) * 0.9 + 0.05:
            tree.insert(point, rng.normal(size=2))
        for probe in rng.random((30, dimension)):
            prediction = tree.predict(probe)
            assert np.all(np.isfinite(prediction))

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=1, max_value=25),
        st.floats(min_value=0.0, max_value=2.0),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_epsilon_gate_bounds_skipped_error(self, dimension, n_points, epsilon, seed):
        tree = SimplexTree(
            unit_cube_root_vertices(dimension, margin=1e-9), value_dimension=2, epsilon=epsilon
        )
        rng = np.random.default_rng(seed)
        for point in rng.random((n_points, dimension)) * 0.9 + 0.05:
            value = rng.normal(size=2)
            prediction_before = tree.predict(point)
            outcome = tree.insert(point, value)
            if outcome.action == "skipped":
                # A skipped insert means the existing prediction was already
                # within epsilon of the supplied value.
                assert np.max(np.abs(prediction_before - value)) <= epsilon + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_linear_mapping_is_learned_exactly(self, dimension, n_points, seed):
        # The optimal query mapping of the tree's interpolation class is
        # piecewise linear; a globally *affine* mapping must therefore be
        # reproduced exactly everywhere once the root vertices' payloads obey
        # it - even with no stored points at all.
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(dimension, 2))
        offset = rng.normal(size=2)
        root = unit_cube_root_vertices(dimension, margin=1e-9)
        tree = SimplexTree(root, value_dimension=2, epsilon=0.0)
        # Seed the root corners with the affine map's values.
        for vertex in root:
            tree.insert(np.asarray(vertex) * (1 - 1e-12), np.asarray(vertex) @ matrix + offset, force=True)
        for point in rng.random((n_points, dimension)) * 0.9 + 0.05:
            tree.insert(point, point @ matrix + offset)
        for probe in rng.random((20, dimension)) * 0.9 + 0.05:
            np.testing.assert_allclose(tree.predict(probe), probe @ matrix + offset, atol=1e-6)


class TestFeedbackBypassProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=3, max_value=8),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_predicted_weights_never_negative(self, n_bins, n_queries, seed):
        bypass = FeedbackBypass(
            standard_simplex_vertices(n_bins - 1, margin=1e-6), n_bins - 1, epsilon=0.0
        )
        rng = np.random.default_rng(seed)
        for _ in range(n_queries):
            histogram = rng.dirichlet(np.ones(n_bins))
            query = histogram[:-1]
            parameters = OptimalQueryParameters(
                delta=rng.normal(scale=0.05, size=n_bins - 1),
                weights=rng.random(n_bins - 1) * 3.0,
            )
            bypass.insert(query, parameters)
        for _ in range(20):
            probe = rng.dirichlet(np.ones(n_bins))[:-1]
            prediction = bypass.mopt(probe)
            assert np.all(prediction.weights >= 0.0)
            assert np.all(np.isfinite(prediction.delta))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=3, max_value=8), st.integers(min_value=0, max_value=10_000))
    def test_untrained_bypass_predicts_default(self, n_bins, seed):
        bypass = FeedbackBypass(
            standard_simplex_vertices(n_bins - 1, margin=1e-6), n_bins - 1, epsilon=0.0
        )
        rng = np.random.default_rng(seed)
        probe = rng.dirichlet(np.ones(n_bins))[:-1]
        assert bypass.mopt(probe).is_default()

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=3, max_value=8),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=0, max_value=10_000),
        st.data(),
    )
    def test_insert_log_batch_splits_commute(self, n_bins, n_inserts, seed, data):
        """The same ordered insert log builds a bit-identical tree however
        it is split into batches.

        This is the invariant the serving registry's warm start rests on:
        replaying a tenant's ordered log — one row at a time, in one big
        ``insert_batch``, or in whatever chunks the write-ahead log happened
        to group — must reconstruct the exact same tree, because the tree's
        growth depends only on the *sequence* of applied inserts, not on
        how callers packaged them.
        """
        rng = np.random.default_rng(seed)
        dimension = n_bins - 1
        log = []
        for _ in range(n_inserts):
            query = rng.dirichlet(np.ones(n_bins))[:-1]
            parameters = OptimalQueryParameters(
                delta=rng.normal(scale=0.05, size=dimension),
                weights=rng.random(dimension) * 3.0,
            )
            log.append((query, parameters))

        def fresh():
            return FeedbackBypass(
                standard_simplex_vertices(dimension, margin=1e-6), dimension, epsilon=0.0
            )

        # Hypothesis chooses the split points of the second replay.
        cut_points = sorted(
            data.draw(
                st.sets(st.integers(min_value=1, max_value=n_inserts), max_size=5),
                label="cut_points",
            )
        )
        bounds = [0, *cut_points, n_inserts]

        one_at_a_time = fresh()
        for query, parameters in log:
            one_at_a_time.insert(query, parameters)

        chunked = fresh()
        for start, stop in zip(bounds, bounds[1:]):
            if stop == start:
                continue
            chunk = log[start:stop]
            chunked.insert_batch(
                np.asarray([query for query, _ in chunk]),
                [parameters for _, parameters in chunk],
            )

        assert chunked.n_stored_queries == one_at_a_time.n_stored_queries
        assert chunked.statistics() == one_at_a_time.statistics()
        for _ in range(10):
            probe = rng.dirichlet(np.ones(n_bins))[:-1]
            first = one_at_a_time.mopt(probe)
            second = chunked.mopt(probe)
            assert np.array_equal(first.delta, second.delta)
            assert np.array_equal(first.weights, second.weights)


class TestHistogramEmbeddingProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=64), st.integers(min_value=0, max_value=10_000))
    def test_drop_restore_roundtrip(self, n_bins, seed):
        histogram = np.random.default_rng(seed).dirichlet(np.ones(n_bins))
        dropped = drop_last_bin(histogram)
        np.testing.assert_array_equal(dropped, histogram[:-1])
        assert 1.0 - dropped.sum() == pytest.approx(histogram[-1], abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=10, max_value=500), st.integers(min_value=0, max_value=10_000))
    def test_extracted_histograms_live_in_root_simplex(self, n_pixels, seed):
        rng = np.random.default_rng(seed)
        pixels = rng.random((n_pixels, 3))
        histogram = histogram_from_hsv_pixels(pixels, n_hue_bins=4, n_saturation_bins=2)
        assert histogram.sum() == pytest.approx(1.0)
        embedded = drop_last_bin(histogram)
        root = standard_simplex_vertices(embedded.shape[0], margin=1e-9)
        from repro.geometry.predicates import contains_point

        assert contains_point(root, embedded, tolerance=1e-9)

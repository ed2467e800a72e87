"""Property-based tests of the anytime budget contract.

Three laws, each randomly probed across corpus shape, metric and budget
size:

* **Monotonicity** — a larger work cap never loses recall against the
  exact answer, and the smaller cap's result is *prefix-quality*: every
  returned neighbour at the smaller cap appears in the larger cap's
  result or is no closer than the larger cap's worst kept distance (the
  scanned rows only grow, and an exact top-k object once scanned stays in
  every superset's top-k).
* **Coverage accounting sums exactly** — ``rows_scanned <= rows_total``,
  ``rows_scanned <= max_rows`` (a cap is a cap), completeness iff nothing
  was skipped, and the full-scan-equivalent denominator is counted once
  however deep the layers nest.
* **Budget zero is well-formed** — every layer returns the right number
  of (possibly empty) result sets instead of raising, with zero rows
  charged.

Budgets in these tests are *work caps* and fake-clock deadlines only —
deterministic by construction.  The real clock is exercised by exactly one
smoke test, via the bounded-poll helper.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database.budget import Budget
from repro.database.collection import FeatureCollection
from repro.database.engine import RetrievalEngine
from repro.database.sharding import ShardedEngine
from repro.distances.minkowski import MinkowskiDistance
from repro.distances.weighted_euclidean import WeightedEuclideanDistance


def _make_collection(seed: int, size: int, dimension: int) -> FeatureCollection:
    rng = np.random.default_rng(seed)
    return FeatureCollection(rng.random((size, dimension)))


def _make_distance(seed: int, dimension: int):
    rng = np.random.default_rng(seed)
    if seed % 2 == 0:
        return WeightedEuclideanDistance(dimension, weights=rng.random(dimension) + 0.1)
    return MinkowskiDistance(dimension, order=1.0 + (seed % 3), weights=rng.random(dimension) + 0.1)


def _recall(result, exact) -> float:
    exact_ids = set(exact.indices().tolist())
    if not exact_ids:
        return 1.0
    return len(exact_ids & set(result.indices().tolist())) / len(exact_ids)


class TestMonotonicity:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=8, max_value=90),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=0.05, max_value=0.6),
        st.floats(min_value=1.2, max_value=4.0),
    )
    def test_larger_cap_never_loses_recall(self, seed, size, dimension, k, fraction, growth):
        collection = _make_collection(seed, size, dimension)
        distance = _make_distance(seed, dimension)
        engine = RetrievalEngine(collection, default_distance=distance)
        rng = np.random.default_rng(seed + 1)
        queries = rng.random((3, dimension))

        exact = engine.search_batch(queries, k)
        rows_total = size * queries.shape[0]
        small_cap = int(fraction * rows_total)
        large_cap = min(int(small_cap * growth) + 1, rows_total * 2)

        small_budget = Budget(max_rows=small_cap)
        large_budget = Budget(max_rows=large_cap)
        small = engine.search_batch(queries, k, budget=small_budget)
        large = engine.search_batch(queries, k, budget=large_budget)

        for row in range(queries.shape[0]):
            recall_small = _recall(small[row], exact[row])
            recall_large = _recall(large[row], exact[row])
            assert recall_large >= recall_small, (
                f"recall fell from {recall_small} to {recall_large} as the "
                f"cap grew {small_cap} -> {large_cap} (row {row})"
            )
            # Prefix quality: whatever the small budget returned is either
            # kept by the large budget or displaced by something at least
            # as close — the scanned rows only ever grow.
            if len(large[row]) == k and len(small[row]) > 0:
                worst_large = float(large[row].distances()[-1])
                kept = set(large[row].indices().tolist())
                for index, dist in zip(
                    small[row].indices().tolist(), small[row].distances().tolist()
                ):
                    assert index in kept or dist >= worst_large, (
                        f"small-cap neighbour {index} at {dist} vanished from "
                        f"the larger cap's result (worst kept {worst_large})"
                    )

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=10, max_value=60),
        st.integers(min_value=2, max_value=5),
    )
    def test_sufficient_cap_reaches_exact(self, seed, size, dimension):
        collection = _make_collection(seed, size, dimension)
        distance = _make_distance(seed, dimension)
        engine = RetrievalEngine(collection, default_distance=distance)
        rng = np.random.default_rng(seed + 2)
        queries = rng.random((2, dimension))
        exact = engine.search_batch(queries, 5)
        budget = Budget(max_rows=size * queries.shape[0] * 2)
        batch = engine.search_batch(queries, 5, budget=budget)
        for result, reference in zip(batch, exact):
            assert np.array_equal(result.indices(), reference.indices())
            assert np.array_equal(result.distances(), reference.distances())
        assert budget.coverage().complete


class TestCoverageAccounting:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=8, max_value=80),
        st.integers(min_value=2, max_value=6),
        st.floats(min_value=0.0, max_value=1.5),
    )
    def test_sums_exactly(self, seed, size, dimension, fraction):
        collection = _make_collection(seed, size, dimension)
        distance = _make_distance(seed, dimension)
        engine = RetrievalEngine(collection, default_distance=distance)
        rng = np.random.default_rng(seed + 3)
        queries = rng.random((3, dimension))
        rows_total = size * queries.shape[0]
        cap = int(fraction * rows_total)
        budget = Budget(max_rows=cap)
        engine.search_batch(queries, 4, budget=budget)
        coverage = budget.coverage()
        # The denominator is the full-scan-equivalent work, counted once.
        assert coverage.rows_total == rows_total
        # A cap is a cap.
        assert coverage.rows_scanned <= cap
        # The scan evaluates each corpus row at most once per query, so work
        # is bounded by the full scan.
        assert 0.0 <= coverage.fraction <= 1.0
        assert coverage.rows_scanned <= rows_total
        # Completeness iff every row was scanned.
        assert coverage.complete == (coverage.rows_scanned == rows_total)

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=20, max_value=80),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=2, max_value=5),
        st.floats(min_value=0.1, max_value=1.2),
    )
    def test_sharded_counts_once(self, seed, size, dimension, n_shards, fraction):
        collection = _make_collection(seed, size, dimension)
        rng = np.random.default_rng(seed + 4)
        queries = rng.random((2, dimension))
        rows_total = size * queries.shape[0]
        budget = Budget(max_rows=int(fraction * rows_total))
        with ShardedEngine(collection, n_shards, n_workers=1) as sharded:
            sharded.search_batch(queries, 3, budget=budget)
            coverage = budget.coverage()
            # Nested scopes (engine -> shard engines -> scans) must not
            # double-count the denominator.
            assert coverage.rows_total == rows_total
            assert coverage.rows_scanned <= rows_total
            assert coverage.shards_answered + coverage.shards_skipped == sharded.n_shards


class TestBudgetZero:
    def test_zero_budget_is_well_formed(self):
        rng = np.random.default_rng(7)
        collection = FeatureCollection(rng.random((50, 5)))
        engine = RetrievalEngine(collection)
        queries = rng.random((3, 5))
        budget = Budget(max_rows=0)
        batch = engine.search_batch(queries, 4, budget=budget)
        assert len(batch) == 3
        for result in batch:
            assert len(result) == 0
            assert result.indices().shape == (0,)
        coverage = budget.coverage()
        assert coverage.rows_scanned == 0
        assert not coverage.complete
        assert coverage.fraction == 0.0

    def test_zero_budget_sharded_and_parameterised(self):
        rng = np.random.default_rng(8)
        collection = FeatureCollection(rng.random((60, 4)))
        queries = rng.random((2, 4))
        with ShardedEngine(collection, 3, n_workers=1) as sharded:
            budget = Budget(max_rows=0)
            batch = sharded.search_batch(queries, 5, budget=budget)
            assert len(batch) == 2 and all(len(result) == 0 for result in batch)
            assert budget.coverage().shards_skipped == sharded.n_shards
        engine = RetrievalEngine(collection)
        deltas = np.zeros_like(queries)
        weights = np.ones_like(queries)
        budget = Budget(max_rows=0)
        batch = engine.search_batch_with_parameters(queries, 5, deltas, weights, budget=budget)
        assert len(batch) == 2 and all(len(result) == 0 for result in batch)


class TestDeadlines:
    def test_fake_clock_is_deterministic(self):
        """Deadline behaviour pinned without touching the real clock."""
        rng = np.random.default_rng(9)
        collection = FeatureCollection(rng.random((40, 4)))
        engine = RetrievalEngine(collection)
        queries = rng.random((2, 4))
        exact = engine.search_batch(queries, 5)

        # A clock frozen before the deadline: full answer, complete.
        alive = Budget(deadline=10.0, clock=lambda: 0.0)
        batch = engine.search_batch(queries, 5, budget=alive)
        for result, reference in zip(batch, exact):
            assert np.array_equal(result.indices(), reference.indices())
        assert alive.coverage().complete

        # A clock past the deadline from the first tick: empty, truncated.
        ticks = iter([0.0] + [100.0] * 1000)
        expired = Budget(deadline=1.0, clock=lambda: next(ticks))
        batch = engine.search_batch(queries, 5, budget=expired)
        assert all(len(result) == 0 for result in batch)
        coverage = expired.coverage()
        assert not coverage.complete
        assert coverage.rows_scanned == 0

    def test_real_clock_smoke(self, wait_until):
        """The one test allowed near the real clock: a deadline in the past
        expires without a hang, observed through the bounded-poll helper."""
        rng = np.random.default_rng(10)
        collection = FeatureCollection(rng.random((30, 4)))
        engine = RetrievalEngine(collection)
        budget = Budget(deadline=0.0)  # expired on arrival
        wait_until(lambda: budget.exhausted(), timeout=5.0)
        result = engine.search(rng.random(4), 3, budget=budget)
        assert len(result) == 0
        assert not budget.coverage().complete

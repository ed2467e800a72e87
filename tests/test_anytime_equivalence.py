"""The anytime byte-identity contract across the full engine grid.

PR 10's hardest promise: threading a :class:`~repro.database.budget.Budget`
through the retrieval stack changed **nothing** unless the budget actually
bites.  Three budgets must be byte-identical — indices *and* distance bits
— to the unbudgeted exact path everywhere:

* ``budget=None`` (trivially: the literal pre-budget code path),
* an **unlimited** ``Budget()`` (detected and routed to the exact path,
  recording complete coverage),
* a **finite but sufficient** cap (takes the budgeted path; identical
  because budget-clamped sub-block top-k lists merge associatively), and a
  far-future deadline on a fake clock (the uncapped budgeted path).

The grid crosses distance family x shard count x worker backend x
precision x live/frozen, seeded so failures reproduce.  The one
deliberate hole: a *finite* budget cannot cross the process boundary (it
is live shared state — a lock and a clock), so the process backend is
exercised with unlimited budgets and asserted to reject finite ones.
"""

import numpy as np
import pytest

from repro.database.budget import Budget, Coverage
from repro.database.collection import FeatureCollection
from repro.database.engine import RetrievalEngine
from repro.database.segments import LiveCollection
from repro.database.sharding import ShardedEngine
from repro.distances.minkowski import MinkowskiDistance, euclidean
from repro.distances.weighted_euclidean import WeightedEuclideanDistance
from repro.utils.validation import ValidationError

DIMENSION = 6
SIZE = 149  # prime: shard ranges stay uneven


@pytest.fixture(scope="module")
def collection() -> FeatureCollection:
    rng = np.random.default_rng(3010)
    vectors = rng.random((SIZE, DIMENSION))
    # Duplicates force distance ties the merges must break identically.
    vectors[5] = vectors[120]
    vectors[60] = vectors[120]
    return FeatureCollection(vectors, labels=[f"c{i % 4}" for i in range(SIZE)])


@pytest.fixture(scope="module")
def queries(collection) -> np.ndarray:
    rng = np.random.default_rng(88)
    points = rng.random((9, DIMENSION))
    points[2] = collection.vectors[120]  # lands exactly on the triplicate
    return points


def _distance_for(name: str):
    if name == "euclidean":
        return euclidean(DIMENSION)
    if name == "weighted":
        rng = np.random.default_rng(13)
        return WeightedEuclideanDistance(DIMENSION, weights=rng.random(DIMENSION) + 0.1)
    return MinkowskiDistance(DIMENSION, order=1.0)


def _frozen_clock():
    """A clock that never advances: deadlines become pure no-ops."""
    return 100.0


def _sufficient_budgets(rows_total: int):
    """Budgets that must not change a single bit, labelled for failures."""
    return [
        ("unlimited", Budget()),
        ("huge-cap", Budget(max_rows=rows_total * 3 + 7)),
        ("far-deadline", Budget(deadline=1e6, clock=_frozen_clock)),
        ("cap+deadline", Budget(max_rows=rows_total * 3 + 7, deadline=1e6, clock=_frozen_clock)),
    ]


def _assert_identical(first, second, context=None):
    assert np.array_equal(first.indices(), second.indices()), context
    assert np.array_equal(first.distances(), second.distances()), context


def _assert_batch_identical(batch, expected, context=None):
    assert len(batch) == len(expected), context
    for result, reference in zip(batch, expected):
        _assert_identical(result, reference, context)


class TestEngineByteIdentity:
    """Unsharded engine: every distance x precision, frozen and live."""

    @pytest.mark.parametrize("distance_name", ["euclidean", "weighted", "cityblock"])
    @pytest.mark.parametrize("k", [1, 10, SIZE + 5])
    def test_search_batch_grid(self, collection, queries, distance_name, k):
        distance = _distance_for(distance_name)
        engine = RetrievalEngine(collection, default_distance=distance)
        expected = engine.search_batch(queries, k)
        rows_total = SIZE * queries.shape[0]
        for label, budget in _sufficient_budgets(rows_total):
            context = (distance_name, k, label)
            batch = engine.search_batch(queries, k, budget=budget)
            _assert_batch_identical(batch, expected, context)
            coverage = budget.coverage()
            assert coverage.complete, context
            assert coverage.fraction >= 0.0, context
        # Single-query path agrees with the batch row.
        single = engine.search(queries[2], k, budget=Budget(max_rows=rows_total))
        _assert_identical(single, expected[2], (distance_name, k))

    @pytest.mark.parametrize("precision", ["exact", "fast"])
    def test_precision_modes(self, collection, queries, precision):
        engine = RetrievalEngine(collection)
        expected = engine.search_batch(queries, 8, precision=precision)
        rows_total = SIZE * queries.shape[0]
        for label, budget in _sufficient_budgets(rows_total):
            batch = engine.search_batch(queries, 8, precision=precision, budget=budget)
            _assert_batch_identical(batch, expected, (precision, label))
            assert budget.coverage().complete, (precision, label)

    @pytest.mark.parametrize("precision", ["exact", "fast"])
    def test_parameterised_batch(self, collection, queries, precision):
        rng = np.random.default_rng(5)
        deltas = rng.normal(0.0, 0.02, queries.shape)
        weights = rng.random(queries.shape) + 0.2
        engine = RetrievalEngine(collection)
        expected = engine.search_batch_with_parameters(
            queries, 7, deltas, weights, precision=precision
        )
        rows_total = SIZE * queries.shape[0]
        for label, budget in _sufficient_budgets(rows_total):
            batch = engine.search_batch_with_parameters(
                queries, 7, deltas, weights, precision=precision, budget=budget
            )
            _assert_batch_identical(batch, expected, (precision, label))
            assert budget.coverage().complete, (precision, label)

    def test_exact_coverage_accounting(self, collection, queries):
        """A complete budgeted run accounts the full-scan-equivalent work once."""
        engine = RetrievalEngine(collection)
        rows_total = SIZE * queries.shape[0]
        budget = Budget(max_rows=rows_total * 2)
        engine.search_batch(queries, 5, budget=budget)
        coverage = budget.coverage()
        assert coverage.rows_total == rows_total
        assert coverage.rows_scanned == rows_total  # a scan pays every row
        assert coverage.fraction == 1.0
        unlimited = Budget()
        engine.search_batch(queries, 5, budget=unlimited)
        exact_cov = unlimited.coverage()
        assert exact_cov.rows_total == rows_total
        assert exact_cov.complete and exact_cov.fraction == 1.0


class TestShardedByteIdentity:
    """Sharded fan-out: shard x worker x distance, plus the process-backend gate."""

    @pytest.mark.parametrize("distance_name", ["euclidean", "weighted", "cityblock"])
    @pytest.mark.parametrize("n_shards,n_workers", [(1, 1), (3, 1), (5, 2), (8, 4)])
    def test_thread_backend_grid(self, collection, queries, n_shards, n_workers, distance_name):
        distance = _distance_for(distance_name)
        reference = RetrievalEngine(collection, default_distance=distance)
        expected = reference.search_batch(queries, 12)
        rows_total = SIZE * queries.shape[0]
        with ShardedEngine(
            collection,
            n_shards,
            n_workers=n_workers,
            backend="thread",
            default_distance=distance,
        ) as sharded:
            for label, budget in _sufficient_budgets(rows_total):
                context = (n_shards, n_workers, distance_name, label)
                batch = sharded.search_batch(queries, 12, budget=budget)
                _assert_batch_identical(batch, expected, context)
                coverage = budget.coverage()
                assert coverage.complete, context
                assert coverage.shards_answered == sharded.n_shards, context
                assert coverage.shards_skipped == 0, context

    def test_process_backend_unlimited_ok_finite_rejected(self, collection, queries):
        with ShardedEngine(
            collection, 3, n_workers=2, backend="process"
        ) as sharded:
            expected = sharded.search_batch(queries, 6)
            # Unlimited budgets never cross the pipe: exact path + coverage.
            budget = Budget()
            batch = sharded.search_batch(queries, 6, budget=budget)
            _assert_batch_identical(batch, expected, "process-unlimited")
            assert budget.coverage().complete
            # A finite budget is live shared state (lock + clock); it cannot
            # be shipped to worker processes, and saying so beats hanging.
            with pytest.raises(ValidationError, match="thread"):
                sharded.search_batch(queries, 6, budget=Budget(max_rows=10))

    def test_parameterised_sharded(self, collection, queries):
        rng = np.random.default_rng(6)
        deltas = rng.normal(0.0, 0.02, queries.shape)
        weights = rng.random(queries.shape) + 0.2
        reference = RetrievalEngine(collection)
        expected = reference.search_batch_with_parameters(queries, 9, deltas, weights)
        rows_total = SIZE * queries.shape[0]
        with ShardedEngine(collection, 4, n_workers=2) as sharded:
            for label, budget in _sufficient_budgets(rows_total):
                batch = sharded.search_batch_with_parameters(
                    queries, 9, deltas, weights, budget=budget
                )
                _assert_batch_identical(batch, expected, label)
                assert budget.coverage().complete, label


class TestLiveByteIdentity:
    """Live segment composition: base + deltas + tombstones, budget threaded."""

    @pytest.fixture(scope="class")
    def live(self, collection):
        live = LiveCollection(collection.vectors[:100], labels=list(collection.labels[:100]))
        live.insert(collection.vectors[100:130], labels=list(collection.labels[100:130]))
        live.delete(np.arange(20, 35))
        live.insert(collection.vectors[130:], labels=list(collection.labels[130:]))
        return live

    def test_live_search_batch(self, live, queries):
        engine = RetrievalEngine(live)
        expected = engine.search_batch(queries, 11)
        rows_total = sum(len(segment.unit) for segment in live.snapshot().segments) * queries.shape[0]
        for label, budget in _sufficient_budgets(rows_total):
            batch = engine.search_batch(queries, 11, budget=budget)
            _assert_batch_identical(batch, expected, label)
            coverage = budget.coverage()
            assert coverage.complete, label
            assert coverage.segments_skipped == 0, label

    def test_live_parameterised(self, live, queries):
        rng = np.random.default_rng(7)
        deltas = rng.normal(0.0, 0.02, queries.shape)
        weights = rng.random(queries.shape) + 0.2
        engine = RetrievalEngine(live)
        expected = engine.search_batch_with_parameters(queries, 6, deltas, weights)
        for label, budget in _sufficient_budgets(200 * queries.shape[0]):
            batch = engine.search_batch_with_parameters(
                queries, 6, deltas, weights, budget=budget
            )
            _assert_batch_identical(batch, expected, label)
            assert budget.coverage().complete, label


class TestBudgetWireForm:
    def test_round_trip(self):
        budget = Budget(max_rows=123, deadline=4.5)
        spec = budget.to_wire()
        assert spec == {"max_rows": 123, "deadline": 4.5}
        assert Budget.from_wire(spec, clock=_frozen_clock).to_wire() == spec

    def test_from_wire_validates(self):
        with pytest.raises(ValidationError):
            Budget.from_wire({"max_rows": 1, "bogus": 2})
        with pytest.raises(ValidationError):
            Budget.from_wire("not a dict")
        budget = Budget(max_rows=5)
        assert Budget.from_wire(budget) is budget

    def test_coverage_round_trip(self):
        coverage = Coverage(
            rows_total=100,
            rows_scanned=40,
            complete=False,
            shards_answered=2,
            shards_skipped=1,
            segments_answered=3,
        )
        assert Coverage.from_dict(coverage.to_dict()) == coverage
        with pytest.raises(ValidationError):
            Coverage.from_dict([1, 2])

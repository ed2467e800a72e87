"""Byte-identity contracts of the raw-speed layer.

The default scan (a float32 candidate stage with exact float64 re-scoring)
and blocked scans both promise the same thing: the exact results of the
float64 single-shot scan, bit for bit, at lower cost.  These tests pin that
promise across the full grid — distance family x k x blocking x sharding
backend — with ``precision="exact"`` as the compared override, plus the
adversarial corners the margins and the magnitude guard were designed for
(dense near-ties, magnitudes past float32's range, a Hypothesis sweep of
scales, offsets, duplicates and weights), the memory bound of the blocked
scan, the per-query-weights batch path, and what a request reads.
"""

import sys
import threading
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database import collection as collection_module
from repro.database import knn
from repro.database.budget import Budget
from repro.database.collection import FeatureCollection
from repro.database.engine import RetrievalEngine
from repro.database.knn import DEFAULT_BLOCK_ROWS, LinearScanIndex
from repro.database.query import ResultSet
from repro.database.sharding import ShardedEngine
from repro.distances.base import DistanceFunction, RowwiseKernel, check_precision
from repro.distances.minkowski import MinkowskiDistance, PowerSumKernel
from repro.distances.weighted_euclidean import (
    GramKernel,
    WeightedEuclideanDistance,
    pairwise_per_query_weights,
)
from repro.features.synthetic import build_clustered_corpus, sample_queries
from repro.serving import coalescer as coalescer_module
from repro.serving.coalescer import RequestCoalescer
from repro.serving.server import ServingCore
from repro.utils import validation
from repro.utils.validation import ValidationError

DIMENSION = 16
N_VECTORS = 2000
N_QUERIES = 6
#: Batch heights of the identity grid: one row, either side of eight, and wide batches.
BATCH_HEIGHTS = (1, 7, 8, 9, 16, 33)


class RowwiseOnly(DistanceFunction):
    """A family with a row-wise kernel only: the sum of two half-vector norms.

    It inherits the base ``pairwise`` (one ``distances_to`` row per query)
    and has no ``term_bound``, so the scan runs it in float64 and sizes its
    margin from the largest value it has seen.
    """

    def parameters(self):
        return np.empty(0)

    def with_parameters(self, parameters):
        return self

    def distance(self, first, second):
        return float(self.distances_to(first, [second])[0])

    def distances_to(self, query, points):
        offsets = self._validate_points(points) - self._validate_point(query)
        half = self.dimension // 2
        return np.linalg.norm(offsets[:, :half], axis=1) + np.linalg.norm(offsets[:, half:], axis=1)


def distance_grid():
    """One representative of every pairwise-kernel family."""
    rng = np.random.default_rng(99)
    return [
        ("euclidean", WeightedEuclideanDistance(DIMENSION)),
        ("weighted", WeightedEuclideanDistance(DIMENSION, weights=rng.random(DIMENSION) + 0.1)),
        ("cityblock", MinkowskiDistance(DIMENSION, order=1.0)),
        ("minkowski3", MinkowskiDistance(DIMENSION, order=3.0, weights=rng.random(DIMENSION) + 0.1)),
        ("rowwise", RowwiseOnly(DIMENSION)),
    ]


#: Families without a float32 kernel: the scan runs them in float64 only.
FLOAT64_ONLY = {"rowwise"}


def _spy_blocks(monkeypatch) -> list:
    """Record ``(kernel, precision, rows)`` for every corpus block a kernel computes.

    The block kernels are the per-block seam of every family — the scan
    calls one per block, ``pairwise`` calls one over the whole matrix.
    """
    blocks = []
    for kernel_class in (GramKernel, PowerSumKernel, RowwiseKernel):

        def spy(self, view, original=kernel_class.__call__):
            blocks.append((self, self.precision, view.matrix.shape[0]))
            return original(self, view)

        monkeypatch.setattr(kernel_class, "__call__", spy)
    return blocks


def _precisions(blocks) -> list:
    return [precision for _, precision, _ in blocks]


def _widths(blocks) -> list:
    return [rows for _, _, rows in blocks]


@pytest.fixture(scope="module")
def corpus():
    return build_clustered_corpus(N_VECTORS, DIMENSION, n_clusters=8, seed=31)


@pytest.fixture(scope="module")
def collection(corpus) -> FeatureCollection:
    return FeatureCollection(corpus.vectors)


@pytest.fixture(scope="module")
def queries(corpus) -> np.ndarray:
    return sample_queries(corpus, N_QUERIES, seed=32)


@pytest.fixture(scope="module")
def many_queries(corpus) -> np.ndarray:
    return sample_queries(corpus, max(BATCH_HEIGHTS), seed=33)


class TestFastPrecisionIdentity:
    @pytest.mark.parametrize("name,distance", distance_grid(), ids=lambda v: v if isinstance(v, str) else "")
    @pytest.mark.parametrize("k", [1, 7, 64])
    @pytest.mark.parametrize("n_queries", BATCH_HEIGHTS)
    @pytest.mark.parametrize("block_rows", [None, 300], ids=["single_shot", "blocked"])
    def test_fast_matches_exact_across_distances_and_k(
        self, collection, many_queries, name, distance, k, n_queries, block_rows
    ):
        """Every family, k and batch height, over one block or several.

        Batches of eight rows and more are the height ``serve_large`` runs.
        """
        engine = RetrievalEngine(collection)
        engine._scan = LinearScanIndex(collection, block_rows=block_rows)
        queries = many_queries[:n_queries]
        default = engine.search_batch(queries, k, distance)
        exact = engine.search_batch(queries, k, distance, "exact")
        assert default == exact

    @pytest.mark.parametrize("name,distance", distance_grid(), ids=lambda v: v if isinstance(v, str) else "")
    def test_default_takes_the_float32_stage(self, collection, queries, name, distance, monkeypatch):
        blocks = _spy_blocks(monkeypatch)
        stage = "exact" if name in FLOAT64_ONLY else "fast"
        RetrievalEngine(collection).search_batch(queries, 5, distance)
        assert _precisions(blocks) == [stage]
        RetrievalEngine(collection).search_batch(queries, 5, distance, "exact")
        assert _precisions(blocks) == [stage, "exact"]

    def test_fast_matches_per_query_search_loop(self, collection, queries):
        engine = RetrievalEngine(collection)
        default = engine.search_batch(queries, 10)
        loop = [LinearScanIndex(collection).search(point, 10, engine.default_distance) for point in queries]
        assert default == loop
        assert [engine.search(point, 10) for point in queries] == loop

    def test_adversarial_near_ties(self):
        """Dense 1e-9 perturbations of one point: the margin's worst case.

        Every corpus row sits within float32 noise of every other, so the
        fast candidate stage cannot distinguish them — only the widened
        candidate set plus exact float64 re-scoring with the (distance,
        index) tie-break can reproduce the exact ranking.
        """
        rng = np.random.default_rng(7)
        base = rng.random(DIMENSION)
        vectors = np.tile(base, (400, 1)) + 1e-9 * rng.normal(size=(400, DIMENSION))
        # A handful of exact duplicates exercise the pure index tie-break.
        vectors[50] = vectors[10]
        vectors[51] = vectors[10]
        engine = RetrievalEngine(FeatureCollection(vectors))
        near_queries = vectors[:4] + 1e-10
        for distance in (None, MinkowskiDistance(DIMENSION, order=3.0)):
            exact = engine.search_batch(near_queries, 25, distance, "exact")
            default = engine.search_batch(near_queries, 25, distance)
            assert default == exact

    @pytest.mark.parametrize("scale", [1.0, 1e18, 1e19])
    def test_magnitudes_past_float32_take_the_exact_path(self, scale, monkeypatch):
        """At 1e19 the float32 stage would form ``inf - inf = nan`` and select nothing.

        The scan observes the corpus extent, the batch's centred magnitude
        and the weights, and sends such a batch through the float64 kernels:
        full, byte-identical answers at every scale.
        """
        rng = np.random.default_rng(3)
        collection = FeatureCollection(scale * rng.normal(size=(500, 8)))
        engine = RetrievalEngine(collection)
        queries = collection.vectors[:5] + scale * 0.01 * rng.normal(size=(5, 8))
        blocks = _spy_blocks(monkeypatch)
        default = engine.search_batch(queries, 10)
        reference = [LinearScanIndex(collection).search(q, 10, engine.default_distance) for q in queries]
        assert default == reference
        assert all(len(result) == 10 for result in default)
        assert _precisions(blocks) == ["fast" if scale == 1.0 else "exact"]

    def test_a_term_bound_past_float64_is_guarded(self):
        """Weights near float64's limit: the term bound overflows, the distances do not.

        The scan expects that overflow (the batch takes the float64 path
        and its margin goes unbounded), so it raises no warning; any other
        floating-point warning from the library fails the gate (root
        ``conftest.py``).
        """
        vectors = np.random.default_rng(5).random((300, 8))
        collection = FeatureCollection(vectors)
        distance = WeightedEuclideanDistance(8, weights=np.full(8, 4e307))
        reach = np.abs(vectors[:4] - collection.workspace.mean) + collection.workspace.extent
        with np.errstate(over="ignore"):
            assert np.isinf(distance.term_bound(reach)).any()
        reference = [LinearScanIndex(collection).search(point, 7, distance) for point in vectors[:4]]
        assert all(np.isfinite(result.distances()).all() for result in reference)
        assert LinearScanIndex(collection).search_batch(vectors[:4], 7, distance) == reference

    def test_invalid_precision_rejected(self, collection, queries):
        engine = RetrievalEngine(collection)
        with pytest.raises(ValidationError):
            engine.search_batch(queries, 5, None, "float16")
        with pytest.raises(ValidationError):
            LinearScanIndex(collection).search_batch(queries, 5, engine.default_distance, "quick")
        with pytest.raises(ValidationError):
            check_precision("")

    @pytest.mark.parametrize("name,distance", distance_grid(), ids=lambda v: v if isinstance(v, str) else "")
    def test_every_kernel_checks_its_precision(self, collection, queries, name, distance):
        with pytest.raises(ValidationError):
            distance.pairwise(queries, collection.vectors, precision="quick")

    def test_fast_pairwise_matrix_is_float32_for_gram_kernels(self, collection, queries):
        distance = WeightedEuclideanDistance(DIMENSION)
        matrix = distance.pairwise(queries, collection.vectors, workspace=collection.workspace, precision="fast")
        assert matrix.dtype == np.float32

    @pytest.mark.parametrize("n_queries", [1, 7, 16])
    def test_fast_kernels_return_query_major_float32(self, collection, many_queries, n_queries):
        """On a block view every float32 kernel returns a C-contiguous ``(Q, rows)`` matrix.

        The pool decodes hit positions query-major, one ``divmod`` by the
        block's height, and reads values through a flat view.
        """
        view = collection.workspace.block(300, 700)
        queries = many_queries[:n_queries]
        weights = np.linspace(0.5, 1.5, n_queries * DIMENSION).reshape(n_queries, DIMENSION)
        matrices = {
            name: distance.pairwise(queries, view.matrix, workspace=view, precision="fast")
            for name, distance in distance_grid()
            if name not in FLOAT64_ONLY
        }
        matrices["per_row"] = pairwise_per_query_weights(
            queries, weights, view.matrix, workspace=view, precision="fast"
        )
        assert len(matrices) == 5
        for name, matrix in matrices.items():
            assert matrix.dtype == np.float32, name
            assert matrix.shape == (n_queries, 400), name
            assert matrix.flags.c_contiguous, name


class TestBlockedScan:
    @pytest.mark.parametrize("precision", ["exact", "fast"])
    @pytest.mark.parametrize("block_rows", [170, 512, N_VECTORS - 1])
    def test_blocked_matches_single_shot(self, collection, queries, precision, block_rows):
        distance = WeightedEuclideanDistance(DIMENSION)
        reference = LinearScanIndex(collection).search_batch(queries, 12, distance, "exact")
        blocked = LinearScanIndex(collection, block_rows=block_rows)
        assert blocked.search_batch(queries, 12, distance, precision) == reference

    @pytest.mark.parametrize("precision", ["exact", "fast"])
    def test_blocks_of_one_far_cluster(self, precision):
        """Each block holds one tight cluster a thousand units off the corpus mean.

        Inside a block every distance is ~1e-3 while the centred norms are
        ~1e6, so the block's largest value says nothing about the Gram
        expansion's error; the margins are sized from the term bound.
        """
        rng = np.random.default_rng(11)
        centre = np.full(8, 1000.0)
        vectors = np.vstack([sign * centre + 1e-3 * rng.normal(size=(16, 8)) for sign in (1, -1)])
        collection = FeatureCollection(vectors)
        queries = vectors[[2, 5, 20]] + 1e-4 * rng.normal(size=(3, 8))
        blocked = LinearScanIndex(collection, block_rows=16)
        for distance in (
            WeightedEuclideanDistance(8),
            MinkowskiDistance(8, order=1.0),
        ):
            reference = [LinearScanIndex(collection).search(q, 5, distance) for q in queries]
            assert blocked.search_batch(queries, 5, distance, precision) == reference

    def test_blocked_matches_for_rowwise_exact_kernels(self, collection, queries):
        # Minkowski's exact pairwise is row-exact: blocking and pooling alone
        # must preserve identity on both precisions.
        distance = MinkowskiDistance(DIMENSION, order=1.0)
        reference = LinearScanIndex(collection).search_batch(queries, 12, distance, "exact")
        blocked = LinearScanIndex(collection, block_rows=300)
        assert blocked.search_batch(queries, 12, distance, "exact") == reference
        assert blocked.search_batch(queries, 12, distance) == reference

    def test_blocked_scan_bounds_kernel_width(self, collection, queries, monkeypatch):
        """No block kernel call ever sees more than ``block_rows`` corpus rows.

        This is the memory bound: the ``(Q, N)`` matrix the scan materialises
        is capped at ``(Q, block_rows)`` regardless of corpus height.
        """
        block_rows = 256
        blocks = _spy_blocks(monkeypatch)
        scan = LinearScanIndex(collection, block_rows=block_rows)
        scan.search_batch(queries, 9, WeightedEuclideanDistance(DIMENSION))
        seen_widths = _widths(blocks)
        assert seen_widths, "the blocked scan never reached the block kernel"
        assert max(seen_widths) <= block_rows
        assert len(seen_widths) == -(-N_VECTORS // block_rows)
        assert sum(seen_widths) == N_VECTORS

    def test_short_corpus_scans_in_one_shot(self, collection, queries, monkeypatch):
        blocks = _spy_blocks(monkeypatch)
        LinearScanIndex(collection).search_batch(queries, 9, WeightedEuclideanDistance(DIMENSION))
        assert _widths(blocks) == [N_VECTORS]

    def test_default_block_rows(self, collection):
        assert LinearScanIndex(collection).block_rows == DEFAULT_BLOCK_ROWS
        assert LinearScanIndex(collection, block_rows=128).block_rows == 128
        with pytest.raises(ValidationError):
            LinearScanIndex(collection, block_rows=0)

    def test_workspace_block_view_shares_rows_and_mirrors(self, collection):
        workspace = collection.workspace
        view = workspace.block(100, 400)
        assert view.matrix.shape == (300, DIMENSION)
        assert view.matrix.base is not None  # a slice, not a copy
        np.testing.assert_array_equal(view.matrix, collection.vectors[100:400])
        assert view.owns(view.matrix)
        assert not view.owns(collection.vectors)
        assert view.centered32.dtype == np.float32
        assert view.centered32.shape == (DIMENSION, 300)
        assert np.shares_memory(view.centered32, workspace.centered32)


class TestPooledPass:
    """The streamed pass pools candidates across blocks and re-scores them once.

    Every case is byte-identical to :meth:`LinearScanIndex.search` and keeps
    the kernel contract: one ``pairwise`` call per block.
    """

    @staticmethod
    def _reference(collection, queries, k, distance=None, weights=None):
        scan = LinearScanIndex(collection)
        if weights is None:
            return [scan.search(point, k, distance) for point in queries]
        return [
            scan.search(point, k, WeightedEuclideanDistance(point.shape[0], weights=weight))
            for point, weight in zip(queries, weights)
        ]

    def test_far_to_near_order_keeps_the_pool_bounded(self, corpus, monkeypatch):
        """Every block is nearer than the last: each one beats the carried cut.

        Without re-deriving the thresholds the pool would grow to N × Q
        entries.  Re-derived whenever it outgrows one block's entries, it
        peaks below two blocks' entries and holds at most one block's once a
        block is pooled.
        """
        block_rows, k = 128, 5
        centre = corpus.vectors[0]
        order = np.argsort(-np.linalg.norm(corpus.vectors - centre, axis=1), kind="stable")
        collection = FeatureCollection(corpus.vectors[order])
        rng = np.random.default_rng(4)
        queries = centre + 1e-3 * rng.normal(size=(3, DIMENSION))
        pooled, peaks = [], []
        add, tighten = knn._StreamedScan.add, knn._StreamedScan._tighten

        def spy_add(self, view, *labels_and_mask):
            add(self, view, *labels_and_mask)
            pooled.append(self.size)

        def spy_tighten(self):
            peaks.append(self.size)
            tighten(self)

        monkeypatch.setattr(knn._StreamedScan, "add", spy_add)
        monkeypatch.setattr(knn._StreamedScan, "_tighten", spy_tighten)
        blocks = _spy_blocks(monkeypatch)
        distance = WeightedEuclideanDistance(DIMENSION)
        blocked = LinearScanIndex(collection, block_rows=block_rows)
        assert blocked.search_batch(queries, k, distance) == self._reference(collection, queries, k, distance)
        n_blocks = -(-N_VECTORS // block_rows)
        assert _precisions(blocks) == ["fast"] * n_blocks
        limit = block_rows * queries.shape[0]
        assert len(pooled) == n_blocks and max(pooled) <= limit
        # The order really is adversarial: the pool outgrows a block's
        # entries every other block, and is cut back each time.
        assert len(peaks) >= n_blocks // 2
        assert limit < max(peaks) <= 2 * limit

    def test_k_larger_than_the_first_block(self, collection, queries, monkeypatch):
        blocks = _spy_blocks(monkeypatch)
        distance = WeightedEuclideanDistance(DIMENSION)
        blocked = LinearScanIndex(collection, block_rows=16)
        assert blocked.search_batch(queries, 40, distance) == self._reference(collection, queries, 40, distance)
        assert _precisions(blocks) == ["fast"] * -(-N_VECTORS // 16)

    @pytest.mark.parametrize("precision", ["exact", "fast"])
    def test_exact_ties_split_across_a_block_boundary(self, collection, precision):
        """Eight copies of one row straddle the boundary and the k-th rank."""
        vectors = collection.vectors.copy()
        vectors[96:104] = vectors[500]
        tied = FeatureCollection(vectors)
        queries = vectors[[500, 7]] + 1e-4
        blocked = LinearScanIndex(tied, block_rows=100)
        for distance in (WeightedEuclideanDistance(DIMENSION), MinkowskiDistance(DIMENSION, order=1.0)):
            for k in (4, 9):
                expected = self._reference(tied, queries, k, distance)
                assert blocked.search_batch(queries, k, distance, precision) == expected
        assert set(expected[0].indices()[:8]) == {96, 97, 98, 99, 100, 101, 102, 103}

    @pytest.mark.parametrize("precision", ["exact", "fast"])
    def test_per_row_weights_over_several_blocks(self, collection, queries, precision, monkeypatch):
        rng = np.random.default_rng(8)
        deltas = 0.02 * rng.normal(size=queries.shape)
        weights = rng.random(queries.shape) + 0.05
        engine = RetrievalEngine(collection)
        engine._scan = LinearScanIndex(collection, block_rows=150)
        blocks = _spy_blocks(monkeypatch)
        results = engine.search_batch_with_parameters(queries, 11, deltas, weights, precision)
        assert results == self._reference(collection, queries + deltas, 11, weights=weights)
        assert _precisions(blocks) == [precision] * -(-N_VECTORS // 150)
        # One per-row kernel, its query side formed once, serves every block.
        assert len({id(kernel) for kernel, _, _ in blocks}) == 1
        assert blocks[0][0].weights.shape == queries.shape

    def test_a_subclass_is_re_scored_through_its_own_distances_to(self, collection, queries):
        """Only the exact weighted Euclidean type skips distances_to on re-scoring."""

        class Halved(WeightedEuclideanDistance):
            def distances_to(self, query, points):
                return 0.5 * super().distances_to(query, points)

        distance = Halved(DIMENSION)
        expected = self._reference(collection, queries, 7, distance)
        for block_rows in (256, N_VECTORS):
            scan = LinearScanIndex(collection, block_rows=block_rows)
            assert scan.search_batch(queries, 7, distance) == expected

    @pytest.mark.parametrize("max_rows", [0, 2, 500, 1100])
    def test_budgeted_prefix_is_the_exact_answer_over_the_prefix(self, collection, queries, max_rows):
        """A clamped scan answers exactly over the rows it was granted."""
        n_queries = queries.shape[0]
        budget = Budget(max_rows=max_rows * n_queries)
        distance = WeightedEuclideanDistance(DIMENSION)
        results = LinearScanIndex(collection, block_rows=256).search_batch(queries, 7, distance, budget=budget)
        scanned = budget.coverage().rows_scanned // n_queries
        assert scanned == max_rows
        if not scanned:
            assert all(len(result) == 0 for result in results)
            return
        prefix = FeatureCollection(collection.vectors[:scanned])
        assert results == self._reference(prefix, queries, 7, distance)


class TestShardedPrecision:
    def test_thread_backend_fast_matches_unsharded_exact(self, collection, queries):
        reference = RetrievalEngine(collection).search_batch(queries, 15, None, "exact")
        with ShardedEngine(collection, 3, n_workers=2) as sharded:
            assert sharded.search_batch(queries, 15) == reference

    def test_process_backend_fast_matches_unsharded_exact(self, queries):
        small = FeatureCollection(
            build_clustered_corpus(300, DIMENSION, n_clusters=4, seed=31).vectors
        )
        small_queries = queries[:3]
        reference = RetrievalEngine(small).search_batch(small_queries, 8, None, "exact")
        with ShardedEngine(small, 2, n_workers=2, backend="process") as sharded:
            assert sharded.search_batch(small_queries, 8) == reference

    def test_sharded_per_query_weights_fast(self, collection, queries):
        rng = np.random.default_rng(55)
        deltas = 0.01 * rng.normal(size=queries.shape)
        weights = rng.random((queries.shape[0], DIMENSION)) + 0.1
        reference = RetrievalEngine(collection).search_batch_with_parameters(
            queries, 10, deltas, weights, "exact"
        )
        with ShardedEngine(collection, 3, n_workers=2) as sharded:
            default = sharded.search_batch_with_parameters(queries, 10, deltas, weights)
        assert default == reference


class TestParameterScanPrecision:
    @pytest.fixture()
    def parameters(self, queries):
        rng = np.random.default_rng(77)
        deltas = 0.02 * rng.normal(size=queries.shape)
        weights = rng.random((queries.shape[0], DIMENSION)) + 0.05
        return deltas, weights

    def test_fast_matches_exact_and_per_query_loop(self, collection, queries, parameters):
        deltas, weights = parameters
        engine = RetrievalEngine(collection)
        exact = engine.search_batch_with_parameters(queries, 10, deltas, weights, "exact")
        default = engine.search_batch_with_parameters(queries, 10, deltas, weights)
        loop = [
            engine.search_with_parameters(point, 10, delta, weight)
            for point, delta, weight in zip(queries, deltas, weights)
        ]
        assert default == exact
        assert exact == loop

    @pytest.mark.parametrize("precision", ["exact", "fast"])
    def test_blocked_parameter_scan_matches(self, collection, queries, parameters, precision):
        deltas, weights = parameters
        reference = RetrievalEngine(collection).search_batch_with_parameters(
            queries, 10, deltas, weights, "exact"
        )
        blocked_engine = RetrievalEngine(collection)
        blocked_engine._scan = LinearScanIndex(collection, block_rows=333)
        blocked = blocked_engine.search_batch_with_parameters(
            queries, 10, deltas, weights, precision
        )
        assert blocked == reference

    def test_invalid_precision_rejected(self, collection, queries, parameters):
        deltas, weights = parameters
        with pytest.raises(ValidationError):
            RetrievalEngine(collection).search_batch_with_parameters(
                queries, 10, deltas, weights, "single"
            )


FAMILIES = ("euclidean", "weighted", "cityblock", "minkowski3", "per_row")


@st.composite
def scan_cases(draw):
    """A corpus, queries and a distance from the corners the margins must cover.

    Scales 1e-30 … 1e30 (past float32 on both sides), a common offset up to
    1e6 times the scale, tight clusters stored contiguously (so a block can
    hold one cluster far from the corpus mean), exact and near-duplicate
    rows, batches of 1 … 24 queries on, near and away from corpus rows,
    weights spanning 1e-6 … 1e6 (shared or one vector per row) and blocked
    scans.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    dimension = draw(st.integers(1, 5))
    scale = 10.0 ** draw(st.integers(-30, 30))
    offset = scale * draw(st.sampled_from([0.0, 1.0, 1e3, 1e6]))
    centres = rng.normal(size=(draw(st.integers(1, 3)), dimension))
    spread = draw(st.sampled_from([1.0, 1e-4]))
    base = centres[np.sort(rng.integers(len(centres), size=n))] + spread * rng.normal(size=(n, dimension))
    for _ in range(draw(st.integers(0, n // 2))):
        source, target = rng.integers(n, size=2)
        noise = draw(st.sampled_from([0.0, 1e-9, 1e-6]))
        base[target] = base[source] + noise * rng.normal(size=dimension)
    vectors = offset + scale * base
    n_queries = draw(st.integers(1, 24))
    jitter = draw(st.sampled_from([0.0, 1e-9, 1e-3, 1.0]))
    queries = vectors[rng.integers(n, size=n_queries)] + scale * jitter * rng.normal(
        size=(n_queries, dimension)
    )
    weights = 10.0 ** rng.uniform(-6, 6, size=(n_queries, dimension))
    family = draw(st.sampled_from(FAMILIES))
    if family == "per_row":
        distance = scale * 1e-3 * rng.normal(size=(n_queries, dimension))  # the deltas
    else:
        distance = {
            "euclidean": WeightedEuclideanDistance(dimension),
            "weighted": WeightedEuclideanDistance(dimension, weights=weights[0]),
            "cityblock": MinkowskiDistance(dimension, order=1.0, weights=weights[0]),
            "minkowski3": MinkowskiDistance(dimension, order=3.0, weights=weights[0]),
        }[family]
    k = draw(st.integers(1, 8))
    block_rows = draw(st.sampled_from([None, 3, 7, 16]))
    return vectors, queries, family, distance, weights, k, block_rows


class TestDefaultScanProperty:
    @settings(max_examples=150, deadline=None)
    @given(scan_cases())
    def test_default_scan_equals_the_reference(self, case):
        vectors, queries, family, distance, weights, k, block_rows = case
        collection = FeatureCollection(vectors)
        engine = RetrievalEngine(collection)
        engine._scan = LinearScanIndex(collection, block_rows=block_rows)
        reference = LinearScanIndex(collection)
        if family == "per_row":
            deltas = distance
            results = engine.search_batch_with_parameters(queries, k, deltas, weights)
            expected = [
                reference.search(point, k, WeightedEuclideanDistance(point.shape[0], weights=weight))
                for point, weight in zip(queries + deltas, weights)
            ]
        else:
            results = engine.search_batch(queries, k, distance)
            expected = [reference.search(point, k, distance) for point in queries]
        assert results == expected


class _CountingDict(dict):
    writes = 0

    def __setitem__(self, key, value):
        self.writes += 1
        super().__setitem__(key, value)


class TestWhatARequestReads:
    N_ROUNDS = 6

    def test_default_requests_read_only_the_float32_terms(self, corpus, queries, monkeypatch):
        """Engine and coalescer batches stream ``centered32`` and cached norms, nothing else.

        No float64 centred copy is built, the default weights' point norms
        are computed once, and no validation pass touches the corpus: every
        array ``np.isfinite`` sees is a query or a gathered candidate set.
        """
        collection = FeatureCollection(corpus.vectors)
        engine = RetrievalEngine(collection)
        coalescer = RequestCoalescer(engine)
        workspace = collection.workspace
        workspace._norms = stored = _CountingDict()
        checked = []
        isfinite = np.isfinite

        def spy(values, *args, **kwargs):
            checked.append(values)
            return isfinite(values, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", spy)
        for _ in range(self.N_ROUNDS):
            engine.search_batch(queries, 10)
            coalescer.submit_search(queries[:2], 10)
        monkeypatch.undo()

        assert workspace._centered is None and workspace._centered_squared is None
        assert workspace._centered32 is not None and workspace._centered_squared32 is None
        assert stored.writes == 1
        assert list(stored.values())[0] is workspace.point_norms(engine.default_distance.weights)
        assert checked, "the requests validated no input at all"
        assert not any(
            isinstance(values, np.ndarray) and np.shares_memory(values, collection.vectors)
            for values in checked
        )

    def test_per_row_requests_read_only_the_float32_terms(self, corpus, monkeypatch):
        """Per-row ``(Δ, W)`` batches — every session round — stream ``centered32`` and its squares.

        The float64 centred terms stay unbuilt, the float32 mirror and its
        squares are each built once, and no ``np.isfinite`` call touches
        corpus memory.
        """
        collection = FeatureCollection(corpus.vectors)
        engine = RetrievalEngine(collection)
        coalescer = RequestCoalescer(engine)
        workspace = collection.workspace
        rng = np.random.default_rng(12)
        points = sample_queries(corpus, 9, seed=13)
        deltas = 0.01 * rng.normal(size=points.shape)
        weights = rng.random(points.shape) + 0.1
        checked, filled = [], []
        isfinite, frozen = np.isfinite, collection_module._frozen

        def spy_isfinite(values, *args, **kwargs):
            checked.append(values)
            return isfinite(values, *args, **kwargs)

        def spy_frozen(array):
            filled.append(array)
            return frozen(array)

        monkeypatch.setattr(np, "isfinite", spy_isfinite)
        monkeypatch.setattr(collection_module, "_frozen", spy_frozen)
        for _ in range(self.N_ROUNDS):
            engine.search_batch_with_parameters(points, 10, deltas, weights)
            coalescer.submit_search_with_parameters(points[:2], 10, deltas[:2], weights[:2])
        monkeypatch.undo()

        assert workspace._centered is None and workspace._centered_squared is None
        assert [id(array) for array in filled] == [id(workspace.centered32), id(workspace.centered_squared32)]
        assert not workspace._norms
        assert checked, "the requests validated no input at all"
        corpus_memory = (collection.vectors, workspace.centered32, workspace.centered_squared32)
        assert not any(
            isinstance(values, np.ndarray) and np.shares_memory(values, memory)
            for values in checked
            for memory in corpus_memory
        )

    @pytest.mark.parametrize("precision", ["exact", "fast"])
    def test_pairwise_validates_matrices_it_does_not_own(self, collection, queries, precision):
        poisoned = collection.vectors.copy()
        poisoned[3, 2] = np.nan
        for _, distance in distance_grid():
            with pytest.raises(ValidationError):
                distance.pairwise(queries, poisoned, workspace=collection.workspace, precision=precision)


class _CountingLock:
    """A lock that counts how often it is entered."""

    def __init__(self) -> None:
        self.lock, self.entries = threading.Lock(), 0

    def __enter__(self):
        self.entries += 1
        return self.lock.__enter__()

    def __exit__(self, *exc_info):
        return self.lock.__exit__(*exc_info)


class TestWhatARequestComputes:
    """Per-request work, counted: input validated where it enters, the
    query side of a scan formed once, each result built once, the
    bookkeeping paid once."""

    def test_a_served_search_validates_only_at_the_layer_boundaries(self, corpus, monkeypatch):
        """The coalescer's and the engine wrapper's ``QueryBatch`` validate the query; nothing below does."""
        core = ServingCore(RetrievalEngine(FeatureCollection(corpus.vectors)))
        original, callers = validation.as_float_matrix, []

        def spy(values, *args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return original(values, *args, **kwargs)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("repro") and getattr(module, "as_float_matrix", None) is original:
                monkeypatch.setattr(module, "as_float_matrix", spy)
        response = core.respond({"op": "search", "query_point": corpus.vectors[3], "k": 10}, object())
        assert response["ok"] and len(response["result"]) == 10
        assert callers == ["plain", "plain"]

    @pytest.mark.parametrize("per_row", [False, True], ids=["shared", "per_row"])
    def test_a_blocked_scan_forms_its_query_norms_once(self, collection, queries, per_row, monkeypatch):
        """Three blocks, one set of query-side terms: a block costs its product and its norms only."""
        scan = LinearScanIndex(collection, block_rows=-(-N_VECTORS // 3))
        engine = RetrievalEngine(collection)
        engine._scan = scan
        weights = np.linspace(0.5, 1.5, queries.size).reshape(queries.shape)

        def search():
            if per_row:
                return engine.search_batch_with_parameters(queries, 10, 0.0 * queries, weights)
            return engine.search_batch(queries, 10)

        expected = search()  # also fills the cached point norms of the default weights
        einsum, norm_calls = np.einsum, []

        def spy(subscripts, *operands, **kwargs):
            norm_calls.append(subscripts)
            return einsum(subscripts, *operands, **kwargs)

        monkeypatch.setattr(np, "einsum", spy)
        blocks = _spy_blocks(monkeypatch)
        assert search() == expected
        assert _widths(blocks) == [667, 667, 666]
        # The weighted query norms once, plus the per-row term bound's own reduction.
        assert len(norm_calls) == (2 if per_row else 1)

    def test_the_term_bound_is_formed_once_per_request(self, collection, queries, monkeypatch):
        bound, calls = WeightedEuclideanDistance.term_bound, []

        def spy(self, reach):
            calls.append(reach.shape)
            return bound(self, reach)

        monkeypatch.setattr(WeightedEuclideanDistance, "term_bound", spy)
        LinearScanIndex(collection, block_rows=500).search_batch(queries, 10, WeightedEuclideanDistance(DIMENSION))
        assert calls == [queries.shape]

    def test_the_scan_builds_one_result_set_per_row(self, collection, many_queries, monkeypatch):
        """Each row's result adopts the arrays the re-score gathered: no copy, no order re-check."""
        built, copied = [], []
        from_arrays = ResultSet.from_arrays.__func__

        def spy_new(cls, *args, **kwargs):
            built.append(cls)
            return object.__new__(cls)

        def spy_from_arrays(cls, indices, distances):
            copied.append(cls)
            return from_arrays(cls, indices, distances)

        monkeypatch.setattr(ResultSet, "__new__", staticmethod(spy_new))
        monkeypatch.setattr(ResultSet, "from_arrays", classmethod(spy_from_arrays))
        results = LinearScanIndex(collection, block_rows=700).search_batch(
            many_queries[:9], 12, WeightedEuclideanDistance(DIMENSION)
        )
        assert len(results) == 9 and all(len(result) == 12 for result in results)
        assert len(built) == 9
        assert copied == []

    def test_an_engine_request_takes_the_counter_lock_once(self, collection, queries):
        engine = RetrievalEngine(collection)
        engine._counter_lock = lock = _CountingLock()
        ones = np.ones(DIMENSION)
        engine.search(queries[0], 5)
        engine.search_batch(queries, 5)
        engine.search_with_parameters(queries[0], 5, 0.0 * ones, ones)
        engine.search_batch_with_parameters(queries, 5, 0.0 * queries, np.ones(queries.shape))
        assert lock.entries == 4
        stats = engine.stats()
        assert (stats["n_searches"], stats["scan_fallbacks"], stats["n_batches"]) == (14, 14, 2)

    def test_a_lone_submitter_waits_on_no_event(self, collection, queries, monkeypatch):
        """An event is made only when a submitter waits on another holder's dispatch."""
        coalescer = RequestCoalescer(RetrievalEngine(collection))
        events = []

        def spy_event():
            events.append(threading.Event())
            return events[-1]

        monkeypatch.setattr(coalescer_module, "threading", types.SimpleNamespace(Event=spy_event))
        for position in range(3):
            coalescer.submit_search(queries[position : position + 1], 5)
        assert events == []
        assert coalescer.stats()["solo_dispatches"] == 3


def _touch_together(n_threads, touch) -> list:
    """Run ``touch()`` on N threads released at once; their return values."""
    barrier = threading.Barrier(n_threads)
    seen = [None] * n_threads

    def main(position):
        barrier.wait()
        seen[position] = touch()

    threads = [threading.Thread(target=main, args=(i,)) for i in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads), "a reader hung"
    return seen


class TestWorkspaceFills:
    """Concurrent first reads of a lazy workspace term build it once."""

    N_THREADS = 8

    @pytest.mark.parametrize(
        "member,fills",
        [
            ("centered32", 1),
            ("centered", 1),
            # The squares also fill the centred matrix they square.
            ("centered_squared32", 2),
            ("centered_squared", 2),
            ("point_norms", 1),
        ],
    )
    def test_concurrent_first_touches_fill_once(self, corpus, member, fills, monkeypatch):
        workspace = FeatureCollection(corpus.vectors).workspace
        frozen, filled = collection_module._frozen, []

        def slow_frozen(array):
            # Each fill ends here; the pause holds the race window open.
            filled.append(array)
            time.sleep(0.01)
            return frozen(array)

        monkeypatch.setattr(collection_module, "_frozen", slow_frozen)
        weights = np.linspace(0.5, 1.5, DIMENSION)
        if member == "point_norms":
            seen = _touch_together(self.N_THREADS, lambda: workspace.point_norms(weights))
        else:
            seen = _touch_together(self.N_THREADS, lambda: getattr(workspace, member))
        assert len(filled) == fills
        assert all(value is seen[0] for value in seen)
        assert not seen[0].flags.writeable

    def test_concurrent_first_reads_share_one_workspace(self, corpus):
        collection = FeatureCollection(corpus.vectors)
        seen = _touch_together(self.N_THREADS, lambda: collection.workspace)
        assert all(workspace is seen[0] for workspace in seen)

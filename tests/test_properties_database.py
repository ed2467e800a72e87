"""Property-based tests for the k-NN engines.

The metric indexes (VP-tree, M-tree) must return exactly the same
neighbourhoods as the exhaustive linear scan for any corpus, any metric in
the supported family and any k — this is the core invariant the retrieval
substrate rests on.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database.collection import FeatureCollection
from repro.database.knn import LinearScanIndex
from repro.database.mtree import MTreeIndex
from repro.database.vptree import VPTreeIndex
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


class TestIndexEquivalenceProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=5, max_value=120),
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=1, max_value=20),
    )
    def test_vptree_matches_scan(self, seed, size, dimension, k):
        collection = _make_collection(seed, size, dimension)
        distance = _make_distance(seed, dimension)
        scan = LinearScanIndex(collection)
        tree = VPTreeIndex(collection, distance, seed=seed, leaf_size=4)
        rng = np.random.default_rng(seed + 1)
        query = rng.random(dimension)
        np.testing.assert_allclose(
            tree.search(query, k).distances(),
            scan.search(query, k, distance).distances(),
            atol=1e-9,
        )

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=5, max_value=90),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=15),
    )
    def test_mtree_matches_scan(self, seed, size, dimension, k):
        collection = _make_collection(seed, size, dimension)
        distance = _make_distance(seed, dimension)
        scan = LinearScanIndex(collection)
        tree = MTreeIndex(collection, distance, node_capacity=5, seed=seed)
        rng = np.random.default_rng(seed + 2)
        query = rng.random(dimension)
        np.testing.assert_allclose(
            tree.search(query, k).distances(),
            scan.search(query, k, distance).distances(),
            atol=1e-9,
        )

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=5, max_value=120),
        st.integers(min_value=2, max_value=8),
    )
    def test_scan_knn_is_prefix_of_larger_knn(self, seed, size, dimension):
        collection = _make_collection(seed, size, dimension)
        distance = _make_distance(seed, dimension)
        scan = LinearScanIndex(collection)
        rng = np.random.default_rng(seed + 3)
        query = rng.random(dimension)
        small = scan.search(query, 3, distance)
        large = scan.search(query, min(10, size), distance)
        np.testing.assert_allclose(
            small.distances(), large.distances()[: len(small)], atol=1e-12
        )

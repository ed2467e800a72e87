"""Integration tests: the full pipeline from corpus to figures.

These tests wire every subsystem together the way the benchmark harness does
— synthetic corpus -> feature extraction -> retrieval -> feedback loops ->
FeedbackBypass training -> evaluation — and assert the paper's qualitative
claims at small scale.
"""

import numpy as np
import pytest

from repro.core.persistence import load_simplex_tree, save_simplex_tree
from repro.core.bypass import FeedbackBypass
from repro.database.collection import FeatureCollection
from repro.database.knn import LinearScanIndex
from repro.database.mtree import MTreeIndex
from repro.database.vptree import VPTreeIndex
from repro.distances.minkowski import euclidean
from repro.evaluation.experiments import learning_curve
from repro.evaluation.session import InteractiveSession, SessionConfig
from repro.features.datasets import build_imsi_like_dataset
from repro.features.normalization import drop_last_bin


class TestIndexesAgreeOnTheCorpus:
    def test_scan_vptree_mtree_return_same_neighbours(self, tiny_collection):
        distance = euclidean(tiny_collection.dimension)
        scan = LinearScanIndex(tiny_collection)
        vptree = VPTreeIndex(tiny_collection, distance, seed=0)
        mtree = MTreeIndex(tiny_collection, distance, node_capacity=8, seed=0)
        rng = np.random.default_rng(0)
        for _ in range(5):
            query_index = int(rng.integers(0, tiny_collection.size))
            query = tiny_collection.vector(query_index)
            reference = scan.search(query, 15, distance).distances()
            np.testing.assert_allclose(vptree.search(query, 15).distances(), reference, atol=1e-9)
            np.testing.assert_allclose(mtree.search(query, 15).distances(), reference, atol=1e-9)


class TestPaperClaimsAtSmallScale:
    @pytest.fixture(scope="class")
    def long_curve(self, tiny_dataset):
        return learning_curve(
            tiny_dataset, k=10, n_queries=120, checkpoint_every=30, epsilon=0.05, seed=17
        )

    def test_strategy_ordering(self, long_curve):
        """Default <= FeedbackBypass <= AlreadySeen (on average) — Figure 10."""
        default = long_curve.default_precision.mean()
        bypass = long_curve.bypass_precision.mean()
        seen = long_curve.already_seen_precision.mean()
        assert seen >= bypass >= default - 0.02

    def test_bypass_learns_over_time(self, long_curve):
        """The gap to Default widens as the tree sees more queries."""
        gains = long_curve.bypass_precision - long_curve.default_precision
        assert gains[-1] >= gains[0]

    def test_feedback_loop_converges_in_few_iterations(self, long_curve):
        iterations = [o.loop_iterations_default for o in long_curve.session.outcomes]
        assert np.mean(iterations) < long_curve.session.config.max_iterations

    def test_tree_grows_sublinearly_in_queries(self, long_curve):
        session = long_curve.session
        assert 0 < session.bypass.n_stored_queries <= len(session.outcomes)
        # Depth grows logarithmically: far smaller than the number of stored points.
        assert session.bypass.tree.depth() <= session.bypass.n_stored_queries

    def test_predicted_weights_upweight_informative_bins(self, long_curve):
        session = long_curve.session
        # For a trained category, predicted weights should deviate from the
        # default (all ones) in a consistent direction.
        index = int(session.collection.indices_with_label("Mammal")[0])
        prediction = session.bypass.mopt(session.collection.vector(index))
        assert not prediction.is_default()


class TestSessionPersistenceIntegration:
    def test_trained_tree_survives_round_trip_and_keeps_helping(self, tmp_path, tiny_dataset):
        config = SessionConfig(k=10, epsilon=0.05, max_iterations=6)
        session = InteractiveSession.for_dataset(tiny_dataset, config)
        rng = np.random.default_rng(3)
        session.run_stream(tiny_dataset.sample_query_indices(50, rng))

        path = tmp_path / "tree.npz"
        save_simplex_tree(session.bypass.tree, path)
        reloaded = load_simplex_tree(path)

        embedded = drop_last_bin(tiny_dataset.features)
        labels = [record.category for record in tiny_dataset.records]
        collection = FeatureCollection(embedded, labels=labels)
        resumed_bypass = FeedbackBypass.from_tree(reloaded, collection.dimension)

        probe = collection.vector(5)
        np.testing.assert_allclose(
            resumed_bypass.mopt(probe).to_vector(), session.bypass.mopt(probe).to_vector(), atol=1e-9
        )


class TestFullPipelineWith32Bins:
    def test_paper_dimensionality_end_to_end(self, small_dataset):
        """One full query cycle in the paper's R^31 -> R^62 configuration."""
        config = SessionConfig(k=15, epsilon=0.05, max_iterations=5)
        session = InteractiveSession.for_dataset(small_dataset, config)
        assert session.bypass.query_dimension == 31
        assert session.bypass.tree.value_dimension == 62
        rng = np.random.default_rng(11)
        outcomes = session.run_stream(small_dataset.sample_query_indices(12, rng))
        assert len(outcomes) == 12
        assert all(0.0 <= o.already_seen_precision <= 1.0 for o in outcomes)
        assert session.bypass.n_stored_queries > 0

    def test_rgb_pipeline_corpus_supports_retrieval(self):
        dataset = build_imsi_like_dataset(
            scale=0.02, seed=5, pixels_per_image=64, noise_images=0, use_rgb_pipeline=True
        )
        config = SessionConfig(k=5, epsilon=0.05, max_iterations=3)
        session = InteractiveSession.for_dataset(dataset, config)
        outcome = session.run_query(0)
        assert 0.0 <= outcome.default.precision <= 1.0

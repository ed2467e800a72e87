"""Tests for the top-level public API surface.

A downstream user should be able to drive the whole system through the names
re-exported from ``repro`` and the subpackage ``__init__`` modules; these
tests pin that surface so accidental removals are caught.
"""

import importlib

import numpy as np
import pytest

import repro


class TestTopLevelExports:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize(
        "name",
        [
            "FeedbackBypass",
            "OptimalQueryParameters",
            "SimplexTree",
            "bypass_for_histograms",
            "bypass_for_unit_cube",
            "bypass_for_points",
            "save_simplex_tree",
            "load_simplex_tree",
            "FeatureCollection",
            "RetrievalEngine",
            "LinearScanIndex",
            "VPTreeIndex",
            "MTreeIndex",
            "ResultSet",
            "WeightedEuclideanDistance",
            "MinkowskiDistance",
            "ImageDataset",
            "build_imsi_like_dataset",
            "FeedbackEngine",
            "ReweightingRule",
            "InteractiveSession",
            "SessionConfig",
            "SimulatedUser",
            "precision",
            "recall",
            "RetrievalServer",
            "ServerConfig",
            "ServingClient",
        ],
    )
    def test_name_is_exported(self, name):
        assert hasattr(repro, name)
        assert name in repro.__all__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None


class TestSubpackageImports:
    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.geometry",
            "repro.wavelets",
            "repro.distances",
            "repro.features",
            "repro.database",
            "repro.feedback",
            "repro.evaluation",
            "repro.utils",
        ],
    )
    def test_subpackage_imports_cleanly(self, module):
        imported = importlib.import_module(module)
        assert hasattr(imported, "__all__")
        for name in imported.__all__:
            assert getattr(imported, name) is not None


class TestEndToEndThroughPublicApi:
    def test_quickstart_snippet(self):
        dataset = repro.build_imsi_like_dataset(scale=0.02, seed=1, pixels_per_image=64)
        session = repro.InteractiveSession.for_dataset(dataset, repro.SessionConfig(k=5, max_iterations=3))
        outcome = session.run_query(0)
        assert 0.0 <= outcome.default_precision <= 1.0

    def test_bypass_save_load_through_public_api(self, tmp_path):
        bypass = repro.bypass_for_unit_cube(3, epsilon=0.0)
        bypass.insert(
            np.array([0.4, 0.4, 0.4]),
            repro.OptimalQueryParameters(delta=np.full(3, 0.1), weights=np.full(3, 2.0)),
        )
        path = tmp_path / "bypass.npz"
        bypass.save(path)
        reloaded = repro.FeedbackBypass.load(path, 3)
        np.testing.assert_allclose(
            reloaded.mopt([0.4, 0.4, 0.4]).to_vector(),
            bypass.mopt([0.4, 0.4, 0.4]).to_vector(),
            atol=1e-9,
        )


class TestExampleScriptsImportable:
    @pytest.mark.parametrize(
        "script",
        [
            "quickstart",
            "image_retrieval_session",
            "category_robustness",
            "persistence_across_sessions",
            "run_paper_experiments",
        ],
    )
    def test_example_has_main(self, script):
        import importlib.util
        import os

        path = os.path.join(os.path.dirname(__file__), "..", "examples", f"{script}.py")
        specification = importlib.util.spec_from_file_location(f"examples_{script}", path)
        module = importlib.util.module_from_spec(specification)
        specification.loader.exec_module(module)
        assert callable(module.main)

"""Tests for the public API surface.

The ``repro`` root imports nothing: a downstream user imports each name from
the module that defines it, and the subpackage ``__init__`` modules re-export
their layer's names.  These tests pin that surface so accidental removals are
caught, and pin the root empty so importing any one layer never loads them
all.
"""

import importlib
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.core.bootstrap import bypass_for_unit_cube
from repro.core.bypass import FeedbackBypass
from repro.core.oqp import OptimalQueryParameters
from repro.evaluation.session import InteractiveSession, SessionConfig
from repro.features.datasets import build_imsi_like_dataset

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: Each documented name and the module that defines it.
DEFINING_MODULES = [
    ("repro.core.bypass", "FeedbackBypass"),
    ("repro.core.oqp", "OptimalQueryParameters"),
    ("repro.core.simplex_tree", "SimplexTree"),
    ("repro.core.bootstrap", "bypass_for_histograms"),
    ("repro.core.bootstrap", "bypass_for_unit_cube"),
    ("repro.core.bootstrap", "bypass_for_points"),
    ("repro.core.persistence", "save_simplex_tree"),
    ("repro.core.persistence", "load_simplex_tree"),
    ("repro.database.collection", "FeatureCollection"),
    ("repro.database.engine", "RetrievalEngine"),
    ("repro.database.knn", "LinearScanIndex"),
    ("repro.database.vptree", "VPTreeIndex"),
    ("repro.database.mtree", "MTreeIndex"),
    ("repro.database.query", "ResultSet"),
    ("repro.distances.weighted_euclidean", "WeightedEuclideanDistance"),
    ("repro.distances.minkowski", "MinkowskiDistance"),
    ("repro.features.datasets", "ImageDataset"),
    ("repro.features.datasets", "build_imsi_like_dataset"),
    ("repro.feedback.engine", "FeedbackEngine"),
    ("repro.feedback.reweighting", "ReweightingRule"),
    ("repro.evaluation.session", "InteractiveSession"),
    ("repro.evaluation.session", "SessionConfig"),
    ("repro.evaluation.simulated_user", "SimulatedUser"),
    ("repro.evaluation.metrics", "precision"),
    ("repro.evaluation.metrics", "recall"),
    ("repro.serving.server", "RetrievalServer"),
    ("repro.serving.server", "ServerConfig"),
    ("repro.serving.client", "ServingClient"),
]


class TestTopLevelExports:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize(
        "module,name", [pytest.param(module, name, id=name) for module, name in DEFINING_MODULES]
    )
    def test_name_is_exported(self, module, name):
        value = getattr(importlib.import_module(module), name)
        assert value.__module__ == module

    def test_the_root_exports_nothing(self):
        """``import repro`` in a fresh interpreter loads no other module of the library."""
        assert repro.__all__ == []
        completed = subprocess.run(
            [sys.executable, "-c", "import repro, sys; print(*sorted(sys.modules))"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=60,
            check=False,
        )
        assert completed.returncode == 0, completed.stderr
        assert [module for module in completed.stdout.split() if module.startswith("repro")] == ["repro"]


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
            "repro.serving",
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
        dataset = build_imsi_like_dataset(scale=0.02, seed=1, pixels_per_image=64)
        session = InteractiveSession.for_dataset(dataset, SessionConfig(k=5, max_iterations=3))
        outcome = session.run_query(0)
        assert 0.0 <= outcome.default_precision <= 1.0

    def test_bypass_save_load_through_public_api(self, tmp_path):
        bypass = bypass_for_unit_cube(3, epsilon=0.0)
        bypass.insert(
            np.array([0.4, 0.4, 0.4]),
            OptimalQueryParameters(delta=np.full(3, 0.1), weights=np.full(3, 2.0)),
        )
        path = tmp_path / "bypass.npz"
        bypass.save(path)
        reloaded = FeedbackBypass.load(path, 3)
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

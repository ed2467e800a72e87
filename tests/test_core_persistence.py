"""Tests for repro.core.persistence."""

import numpy as np
import pytest

from repro.core.analysis import iter_nodes
from repro.core.persistence import FORMAT_VERSION, load_simplex_tree, save_simplex_tree
from repro.core.simplex_tree import SimplexTree
from repro.geometry.bounding import standard_simplex_vertices, unit_cube_root_vertices
from repro.utils.validation import ValidationError


def build_populated_tree(seed=0, epsilon=0.05) -> SimplexTree:
    tree = SimplexTree(
        unit_cube_root_vertices(3, margin=1e-9),
        value_dimension=4,
        default_value=np.array([0.0, 0.0, 1.0, 1.0]),
        epsilon=epsilon,
    )
    rng = np.random.default_rng(seed)
    for point in rng.random((40, 3)) * 0.9 + 0.05:
        value = np.concatenate([np.sin(point[:2] * 3.0), point[:2] + 1.0])
        tree.insert(point, value)
    return tree


class TestSaveLoadRoundtrip:
    def test_structure_preserved(self, tmp_path):
        tree = build_populated_tree()
        path = tmp_path / "tree.npz"
        save_simplex_tree(tree, path)
        reloaded = load_simplex_tree(path)
        assert reloaded.dimension == tree.dimension
        assert reloaded.value_dimension == tree.value_dimension
        assert reloaded.epsilon == pytest.approx(tree.epsilon)
        assert reloaded.n_stored_points == tree.n_stored_points
        assert reloaded.depth() == tree.depth()
        assert reloaded.leaf_count() == tree.leaf_count()

    def test_predictions_identical(self, tmp_path):
        tree = build_populated_tree(seed=1)
        path = tmp_path / "tree.npz"
        save_simplex_tree(tree, path)
        reloaded = load_simplex_tree(path)
        rng = np.random.default_rng(99)
        for probe in rng.random((30, 3)) * 0.9 + 0.05:
            np.testing.assert_allclose(reloaded.predict(probe), tree.predict(probe), atol=1e-9)

    def test_default_value_preserved(self, tmp_path):
        tree = SimplexTree(
            unit_cube_root_vertices(2), value_dimension=2, default_value=[3.0, 4.0]
        )
        path = tmp_path / "empty.npz"
        save_simplex_tree(tree, path)
        reloaded = load_simplex_tree(path)
        np.testing.assert_allclose(reloaded.predict([0.5, 0.5]), [3.0, 4.0])

    def test_empty_tree_roundtrip(self, tmp_path):
        tree = SimplexTree(standard_simplex_vertices(4, margin=1e-6), value_dimension=8)
        path = tmp_path / "empty.npz"
        save_simplex_tree(tree, path)
        reloaded = load_simplex_tree(path)
        assert reloaded.n_stored_points == 0
        assert reloaded.value_dimension == 8

    def test_updates_survive_roundtrip(self, tmp_path):
        tree = SimplexTree(unit_cube_root_vertices(2), value_dimension=1)
        tree.insert([0.4, 0.4], [1.0])
        tree.insert([0.4, 0.4], [7.0])  # update of the same point
        path = tmp_path / "updated.npz"
        save_simplex_tree(tree, path)
        reloaded = load_simplex_tree(path)
        np.testing.assert_allclose(reloaded.predict([0.4, 0.4]), [7.0], atol=1e-9)

    def test_tolerance_survives_roundtrip(self, tmp_path):
        # The second point sits 1e-7 off the shared edge of two leaves: at
        # tolerance 1e-6 the sliver child across that edge is degenerate and
        # omitted, at the default 1e-9 it is kept — a reload that forgot the
        # tolerance would replay into a different tree.
        operations = [([0.5, 0.5], [1.0, 2.0]), ([0.25 + 1e-7, 0.25], [3.0, 4.0]), ([0.3, 0.6], [5.0, 6.0])]

        def grow(**kwargs):
            tree = SimplexTree(unit_cube_root_vertices(2), value_dimension=2, **kwargs)
            for point, value in operations:
                tree.insert(point, value)
            return tree

        tree = grow(tolerance=1e-6)
        assert tree.n_simplices != grow().n_simplices
        path = tmp_path / "tolerant.npz"
        save_simplex_tree(tree, path)
        reloaded = load_simplex_tree(path)
        assert reloaded.tolerance == 1e-6
        assert reloaded.n_simplices == tree.n_simplices

        def leaves(some_tree):
            return [node.simplex.vertices.tobytes() for node in iter_nodes(some_tree) if node.is_leaf]

        assert leaves(reloaded) == leaves(tree)
        rng = np.random.default_rng(5)
        for probe in rng.random((50, 2)):
            assert reloaded.predict(probe).tobytes() == tree.predict(probe).tobytes()

    def test_archive_without_tolerance_loads_with_the_default(self, tmp_path):
        tree = build_populated_tree(seed=5)
        path = tmp_path / "tree.npz"
        save_simplex_tree(tree, path)
        with np.load(path) as archive:
            payload = {name: archive[name] for name in archive.files if name != "tolerance"}
        np.savez_compressed(path, **payload)
        reloaded = load_simplex_tree(path)
        assert reloaded.tolerance == 1e-9
        assert reloaded.n_simplices == tree.n_simplices

    def test_reloaded_tree_accepts_further_inserts(self, tmp_path):
        tree = build_populated_tree(seed=2)
        path = tmp_path / "tree.npz"
        save_simplex_tree(tree, path)
        reloaded = load_simplex_tree(path)
        before = reloaded.n_stored_points
        reloaded.insert([0.111, 0.222, 0.333], [9.0, 9.0, 9.0, 9.0], force=True)
        assert reloaded.n_stored_points == before + 1


class TestFormatChecks:
    def test_wrong_version_rejected(self, tmp_path):
        tree = build_populated_tree(seed=3)
        path = tmp_path / "tree.npz"
        save_simplex_tree(tree, path)
        with np.load(path) as archive:
            payload = {name: archive[name] for name in archive.files}
        payload["format_version"] = np.asarray([FORMAT_VERSION + 1])
        np.savez_compressed(path, **payload)
        with pytest.raises(ValidationError):
            load_simplex_tree(path)

    def test_path_like_accepted(self, tmp_path):
        tree = build_populated_tree(seed=4)
        path = tmp_path / "tree.npz"
        save_simplex_tree(tree, str(path))
        assert load_simplex_tree(str(path)).n_stored_points == tree.n_stored_points

"""Point location, tree structure and predicted bytes against the reference.

``IncrementalTriangulation.locate`` decides most nodes from closed-form
barycentric coordinates instead of one linear solve per child.  The contract
is that nothing observable moves: the child-by-child walk (kept as the
``locate_oracle`` fixture, public API only) must find the same leaf object
after the same number of visited nodes for every probe of a seeded grid

    D in {2, 5, 31}  x  {uniform, shrinking-scale clustered, labelled corpus}

whose probes are chosen to sit where the two could disagree: stored vertices
(which are also the split points of the inner nodes), vertices moved by
1e-10 and 1e-6, points on faces shared by several leaves, and points outside
the root.  On the same trees every split must equal ``Simplex.split`` and
every prediction must equal ``interpolate_payloads`` on the oracle's leaf,
byte for byte.

A stored vertex looked up again resumes its remembered walk instead of
walking from the root, and a split certifies most children from one inverse
instead of one SVD each; both are held to the same oracle here — every
stored vertex re-looked-up after every insert, and every split against
``Simplex.split``.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.analysis import iter_nodes
from repro.core.interpolation import interpolate_payloads
from repro.core.simplex_tree import SimplexTree
from repro.geometry.bounding import bounding_simplex_for_points, unit_cube_root_vertices
from repro.geometry.simplex import Simplex
from repro.geometry.triangulation import (
    DECISION_MARGIN,
    TRUST_FACTOR,
    IncrementalTriangulation,
    TriangulationNode,
)
from repro.utils.validation import ValidationError

TOLERANCE = 1e-9

#: Share of visited inner nodes the labelled grid may send to the per-child
#: solves.  Measured 0.15 (every stored vertex and every on-face probe needs
#: them at the node whose face it lies on); a replay of the workload's own
#: sessions measures 0.10.  A margin that sends everything to the slow path
#: reads 1.0.
SOLVE_SHARE_CEILING = 0.30


@dataclass
class Grown:
    """One tree of the grid, its probes and what the oracle says about them."""

    tree: SimplexTree
    inside: list  # (family, point, oracle leaf, oracle visited)
    outside: list  # points the oracle rejects at the root


def _synthetic(kind: str, dimension: int, rng):
    """(tree, extra probes) for the uniform and the clustered rows of the grid."""
    tree = SimplexTree(unit_cube_root_vertices(dimension, margin=1e-6), 3, tolerance=TOLERANCE)
    if kind == "uniform":
        for point in rng.random((60 if dimension == 31 else 200, dimension)):
            tree.insert(point, rng.standard_normal(3))
    else:
        # A cluster whose scale shrinks with every insert: each point is drawn
        # inside the leaf that holds the cluster centre, so every insert adds
        # a level there and the simplices around the centre get thinner and
        # thinner; a looser cloud around it makes the upper levels bushy.
        centre = rng.random(dimension) * 0.5 + 0.25
        for _ in range(24):
            leaf, _ = tree.locate(centre)
            point = rng.dirichlet(np.ones(dimension + 1)) @ leaf.simplex.vertices
            tree.insert(point, rng.standard_normal(3))
        for point in np.clip(centre + 0.05 * rng.standard_normal((40, dimension)), 0.0, 1.0):
            tree.insert(point, rng.standard_normal(3))
    return tree, rng.random((40, dimension))


def _labelled(rng):
    """The benchmark's tree: its corpus, its root simplex, its 256 cold rows."""
    from bench.workloads import WORKLOADS, generate

    inputs = generate(WORKLOADS["interactive_bypass"], 2001)
    corpus = inputs.corpus
    root = bounding_simplex_for_points(corpus, margin=0.25)  # BypassRegistry.for_engine
    tree = SimplexTree(root, 2 * corpus.shape[1], tolerance=TOLERANCE)
    for point in corpus[inputs.cold]:
        tree.insert(point, rng.standard_normal(tree.value_dimension))
    warm = corpus[inputs.warm[:160]]  # half repeats of the cold rows, half fresh images
    jittered = corpus[rng.integers(0, len(corpus), 60)]
    jittered = jittered + 1e-3 * rng.standard_normal(jittered.shape)
    return tree, np.vstack([warm, jittered])


def _probes(tree: SimplexTree, extra: np.ndarray, rng, per_family: int) -> list:
    dimension = tree.dimension
    stored = tree.stored_points()
    picked = stored[rng.choice(len(stored), min(per_family, len(stored)), replace=False)]
    probes = [("stored vertex", point) for point in picked]
    for offset in (1e-10, 1e-6):
        signs = rng.choice([-1.0, 1.0], picked.shape)
        probes += [(f"vertex +- {offset:g}", point) for point in picked + offset * signs]
    leaves = [node for node in iter_nodes(tree) if node.is_leaf]
    for _ in range(per_family):
        # A random convex combination of k <= D vertices of a leaf lies on a
        # (k-1)-face that the leaf shares with its neighbours.
        vertices = leaves[rng.integers(0, len(leaves))].simplex.vertices
        k = int(rng.integers(1, dimension + 1))
        corners = rng.choice(dimension + 1, k, replace=False)
        probes.append((f"shared {k - 1}-face", rng.dirichlet(np.ones(k)) @ vertices[corners]))
    probes += [("interior", point) for point in extra]
    # Around the root's own faces: its corners, and its centroid pushed
    # through each of a few faces to just inside / just outside.
    root = tree.root_simplex.vertices
    centroid = root.mean(axis=0)
    probes += [("root corner", corner) for corner in root[:3]]
    for corner in root[:3]:
        face_centre = (root.sum(axis=0) - corner) / dimension
        outward = (face_centre - centroid) / np.linalg.norm(face_centre - centroid)
        probes.append(("inside a root face", face_centre - 1e-6 * outward))
        probes.append(("outside a root face", face_centre + 1e-6 * outward))
        probes.append(("far outside", centroid + 3.0 * (corner - centroid)))
    return probes


GRID = [
    pytest.param((kind, dimension), id=f"{kind}-D{dimension}")
    for dimension in (2, 5, 31)
    for kind in ("uniform", "clustered")
] + [pytest.param(("labelled", 31), id="labelled-D31")]


@functools.lru_cache(maxsize=None)
def _grown(kind: str, dimension: int, locate_oracle) -> Grown:
    rng = np.random.default_rng([2001, dimension, len(kind)])
    if kind == "labelled":
        tree, extra = _labelled(rng)
        per_family = 64
    else:
        tree, extra = _synthetic(kind, dimension, rng)
        per_family = 24 if dimension == 31 else 60
    inside, outside = [], []
    for family, point in _probes(tree, extra, rng, per_family):
        try:
            leaf, visited = locate_oracle(tree.root, point, TOLERANCE)
        except ValidationError:
            outside.append(point)
        else:
            inside.append((family, point, leaf, visited))
    return Grown(tree, inside, outside)


@pytest.fixture(params=GRID)
def grown(request, locate_oracle) -> Grown:
    """One row of the grid, built (and walked by the oracle) once per session."""
    return _grown(*request.param, locate_oracle)


class TestLocation:
    def test_same_leaf_after_the_same_number_of_nodes(self, grown):
        families = set()
        for family, point, leaf, visited in grown.inside:
            located, counted = grown.tree.locate(point)
            assert located is leaf, family
            assert counted == visited, family
            families.add(family.split(" +- ")[0].split(" ")[0])
        assert {"stored", "vertex", "shared", "interior", "root", "inside"} <= families

    def test_points_outside_the_root_raise_in_both(self, grown):
        assert len(grown.outside) >= 6
        for point in grown.outside:
            with pytest.raises(ValidationError):
                grown.tree.locate(point)
            assert not grown.tree.contains(point)

    @pytest.mark.parametrize("grown", [row for row in GRID if "clustered" in row.id], indirect=True)
    def test_clustered_trees_are_deep(self, grown):
        assert grown.tree.depth() >= 15

    def test_counted_lookup_is_the_same_walk(self, grown):
        family, point, leaf, visited = grown.inside[0]
        before = grown.tree.statistics.snapshot()
        assert grown.tree.locate(point) == (leaf, visited)
        assert grown.tree.statistics.snapshot() == before
        assert grown.tree.lookup(point) == (leaf, visited)
        assert grown.tree.statistics.n_lookups == before["n_lookups"] + 1


class TestStructureAndBytes:
    def test_every_split_equals_simplex_split(self, grown):
        inner = [node for node in iter_nodes(grown.tree) if node.children]
        assert len(inner) == grown.tree.n_stored_points
        for node in inner:
            parent = node.simplex
            split_point = node.children[0].simplex.vertices[node.replaced[0]]
            expected = parent.split(split_point, tolerance=TOLERANCE)
            assert len(node.children) == len(expected) == len(node.replaced)
            for child, replaced, reference in zip(node.children, node.replaced, expected):
                vertices = child.simplex.vertices
                assert vertices.tobytes() == reference.vertices.tobytes()
                assert np.array_equal(vertices[replaced], split_point)
                assert np.array_equal(np.delete(vertices, replaced, 0), np.delete(parent.vertices, replaced, 0))
                assert child.depth == node.depth + 1
            # The stored coordinates of the split point are the exact solve's.
            assert np.array_equal(node.split_weights, parent.barycentric_coordinates(split_point))

    def test_predictions_are_interpolate_payloads_on_the_oracle_leaf(self, grown):
        tree = grown.tree
        for family, point, leaf, _ in grown.inside:
            vertices = leaf.simplex.vertices
            payloads = np.vstack([tree.stored_payload(vertex) for vertex in vertices])
            assert np.array_equal(tree.vertex_payloads(leaf), payloads), family
            expected = interpolate_payloads(vertices, payloads, point)
            assert tree.predict(point).tobytes() == expected.tobytes(), family
        batch = np.vstack([point for _, point, _, _ in grown.inside[:40]] + grown.outside[:2])
        singles = np.vstack([tree.predict(point) for point in batch])
        assert tree.predict_batch(batch).tobytes() == singles.tobytes()

    def test_rcond_is_a_lower_bound_that_decides_like_the_svd(self, grown):
        """A certified child stores its bound, never more than the SVD's
        ratio, and on the same side of the closed-form floor."""
        floor = _floor(grown.tree.dimension)
        for node in iter_nodes(grown.tree):
            vertices = node.vertices
            singular = np.linalg.svd(vertices[1:] - vertices[0], compute_uv=False)
            exact = singular[-1] / singular[0]
            assert node.rcond <= exact * (1.0 + 1e-9)
            assert (node.rcond >= floor) == (exact >= floor)


def _floor(dimension: int) -> float:
    """The closed-form floor on ``sigma_min / sigma_max`` of a D-dim tree."""
    return TRUST_FACTOR * (dimension + 1) * np.finfo(np.float64).eps / DECISION_MARGIN


def _replay(tree: SimplexTree) -> tuple[SimplexTree, list]:
    """A fresh tree with ``tree``'s geometry, and ``tree``'s journal to feed it."""
    fresh = SimplexTree(tree.root_simplex.vertices, tree.value_dimension, tolerance=TOLERANCE)
    return fresh, tree.journal


def _assert_predicts_on(tree: SimplexTree, point: np.ndarray, leaf) -> None:
    vertices = leaf.simplex.vertices
    payloads = np.vstack([tree.stored_payload(vertex) for vertex in vertices])
    assert tree.predict(point).tobytes() == interpolate_payloads(vertices, payloads, point).tobytes()


class TestRememberedWalks:
    def test_every_stored_vertex_after_every_insert(self, grown, locate_oracle):
        """Replay the grid tree's journal; after each insert look every stored
        vertex (root corners included) up again.  Leaf, visited count and
        predicted bytes are the oracle's, also for vertices whose remembered
        leaf the insert just split."""
        tree, journal = _replay(grown.tree)
        vertices = list(tree.root_simplex.vertices)
        answers: dict[bytes, tuple] = {}
        n_moved = 0
        for point, payload, action in journal:
            tree.insert(point, payload, force=action == "inserted")
            if action == "inserted":
                vertices.append(point)
            for vertex in vertices:
                known = answers.get(vertex.tobytes())
                # The oracle reads nothing but ``children``, which a split
                # sets once on a leaf: its answer for a vertex moves only
                # when that answer's leaf is split, and is walked anew then.
                moved = known is None or bool(known[0].children)
                if moved:
                    known = answers[vertex.tobytes()] = locate_oracle(tree.root, vertex, TOLERANCE)
                leaf, visited = tree.lookup(vertex)
                assert leaf is known[0] and visited == known[1]
                if moved:
                    n_moved += 1
                    _assert_predicts_on(tree, vertex, leaf)
        # Some remembered leaves were split and walked on from (at D = 31 a
        # vertex's leaf is rarely split again within the grid's inserts).
        assert n_moved > len(vertices) or tree.dimension == 31
        for vertex in vertices:
            leaf, visited = locate_oracle(tree.root, vertex, TOLERANCE)
            assert tree.lookup(vertex) == (leaf, visited)
            _assert_predicts_on(tree, vertex, leaf)

    @pytest.mark.parametrize("grown", [row for row in GRID if "D31" not in row.id], indirect=True)
    def test_a_walk_resumes_across_several_splits(self, grown, locate_oracle):
        """Vertices remembered halfway through the journal and looked up only
        at its end resume across every split their leaf went through since."""
        tree, journal = _replay(grown.tree)
        half = len(journal) // 2
        for point, payload, action in journal[:half]:
            tree.insert(point, payload, force=action == "inserted")
        vertices = np.vstack([tree.root_simplex.vertices, tree.stored_points()])
        halfway = [tree.lookup(vertex)[1] for vertex in vertices]
        for point, payload, action in journal[half:]:
            tree.insert(point, payload, force=action == "inserted")
        deepened = []
        for vertex, before in zip(vertices, halfway):
            leaf, visited = locate_oracle(tree.root, vertex, TOLERANCE)
            assert tree.lookup(vertex) == (leaf, visited)
            _assert_predicts_on(tree, vertex, leaf)
            deepened.append(visited - before)
        # Some walks went on past their remembered leaf (at D = 2, across
        # more than one split of it).
        assert max(deepened) >= (2 if tree.dimension == 2 else 1)

    def test_a_remembered_vertex_predicts_without_a_solve_or_a_descent(self, monkeypatch):
        rng = np.random.default_rng(43)
        tree = SimplexTree(unit_cube_root_vertices(5, margin=1e-6), 3, tolerance=TOLERANCE)
        for point in rng.random((80, 5)):
            tree.insert(point, rng.standard_normal(3))
        counts = {"coordinates": 0, "descend": 0}
        coordinates = TriangulationNode.coordinates
        descend = IncrementalTriangulation._descend

        def counting_coordinates(node, point):
            counts["coordinates"] += 1
            return coordinates(node, point)

        def counting_descend(self, node, weights, point):
            counts["descend"] += 1
            return descend(self, node, weights, point)

        monkeypatch.setattr(TriangulationNode, "coordinates", counting_coordinates)
        monkeypatch.setattr(IncrementalTriangulation, "_descend", counting_descend)
        vertex = tree.stored_points()[17].copy()
        first = tree.predict(vertex)
        assert counts["descend"] > 0
        counts.update(coordinates=0, descend=0)
        assert tree.predict(vertex).tobytes() == first.tobytes()
        assert counts == {"coordinates": 0, "descend": 0}

        # Equal under the rounded key but not bitwise: an ordinary walk.
        nearby = vertex.copy()
        nearby[0] = np.nextafter(nearby[0], 1.0)
        assert tree._key(nearby) == tree._key(vertex)
        tree.predict(nearby)
        assert counts["descend"] > 0 and counts["coordinates"] > 0

        # A freshly stored point starts from the leaf its insert split.
        point = rng.random(5)
        assert tree.insert(point, rng.standard_normal(3)).action == "inserted"
        counts.update(coordinates=0, descend=0)
        assert tree.lookup(point) == tree.locate(point)
        assert counts["descend"] == 1 + (tree.locate(point)[1] - 1)


class TestSplitCertificate:
    @staticmethod
    def _split_like_simplex(triangulation, leaf, point, tolerance=TOLERANCE) -> None:
        """Split ``leaf``; children, order and ``trusted`` are the reference's."""
        floor = _floor(triangulation.dimension)
        reference = leaf.simplex.split(point, tolerance=tolerance)
        leaf_vertices = leaf.vertices
        singular = np.linalg.svd(leaf_vertices[1:] - leaf_vertices[0], compute_uv=False)
        exact_rconds = []
        for child in reference:
            values = np.linalg.svd(child.vertices[1:] - child.vertices[0], compute_uv=False)
            exact_rconds.append(values[-1] / values[0])
        thin = [rcond < floor for rcond in exact_rconds]
        expected_trusted = 0
        if singular[-1] / singular[0] >= floor:
            expected_trusted = thin.index(True) if any(thin) else len(reference)
        triangulation.split(leaf, point)
        assert [child.simplex.vertices.tobytes() for child in leaf.children] == [
            child.vertices.tobytes() for child in reference
        ]
        assert leaf.trusted == expected_trusted
        for child, exact in zip(leaf.children, exact_rconds):
            assert child.rcond <= exact * (1.0 + 1e-9)

    @staticmethod
    def _svd_calls_of_split(monkeypatch, triangulation, leaf, point) -> list:
        """Split ``leaf``; return the shapes ``np.linalg.svd`` was called with."""
        calls = []
        svd = np.linalg.svd

        def spying_svd(matrix, *args, **kwargs):
            calls.append(np.shape(matrix))
            return svd(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spying_svd)
        triangulation.split(leaf, point)
        monkeypatch.setattr(np.linalg, "svd", svd)
        return calls

    def test_a_well_conditioned_split_runs_no_svd(self, monkeypatch):
        triangulation = IncrementalTriangulation(unit_cube_root_vertices(31), tolerance=TOLERANCE)
        root = triangulation.root
        point = np.random.default_rng(431).dirichlet(np.ones(32)) @ root.vertices
        assert self._svd_calls_of_split(monkeypatch, triangulation, root, point) == []
        assert len(root.children) == root.trusted == 32
        assert [Simplex(child.vertices) for child in root.children] == root.simplex.split(point, tolerance=TOLERANCE)

    @pytest.mark.parametrize("dimension", [2, 5, 31])
    def test_a_near_degenerate_leaf_drops_what_simplex_split_drops(self, dimension):
        """Split points on a face, a hair off it, and inside a sliver: the
        children the SVD has to decide are decided as ``Simplex.split`` does."""
        rng = np.random.default_rng([432, dimension])
        for offset in (0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4):
            triangulation = IncrementalTriangulation(unit_cube_root_vertices(dimension), tolerance=TOLERANCE)
            root = triangulation.root
            weights = rng.dirichlet(np.ones(dimension + 1))
            weights[: dimension // 2] = offset  # near the face opposite those vertices
            weights /= weights.sum()
            self._split_like_simplex(triangulation, root, weights @ root.vertices)
            # Then a thin child of that split is split in turn.
            thinnest = min(root.children, key=lambda child: child.rcond)
            inner = rng.dirichlet(np.ones(dimension + 1)) @ thinnest.vertices
            self._split_like_simplex(triangulation, thinnest, inner)

    def test_a_coarse_tolerance_still_drops_what_simplex_split_drops(self):
        """A tolerance above the floor: whether a child clears it is the
        SVD's call, also where its bound already clears the floor."""
        for offset in (3e-4, 1e-3, 1.1e-3, 1.3e-3, 3e-3, 1e-2):
            triangulation = IncrementalTriangulation(unit_cube_root_vertices(3), tolerance=1e-3)
            weights = np.array([offset, 0.3, 0.3, 0.4])
            weights /= weights.sum()
            point = weights @ triangulation.root.vertices
            self._split_like_simplex(triangulation, triangulation.root, point, tolerance=1e-3)

    def test_a_sliver_leaf_sends_every_child_to_the_svd(self, monkeypatch):
        """Below the floor the leaf's inverse is not trusted for a bound."""
        vertices = unit_cube_root_vertices(5)
        vertices[-1] = vertices[0] + 1e-8 * (vertices[-1] - vertices[0])
        triangulation = IncrementalTriangulation(vertices, tolerance=TOLERANCE)
        root = triangulation.root
        assert root.rcond < _floor(5)
        point = np.full(6, 1.0 / 6) @ vertices
        assert self._svd_calls_of_split(monkeypatch, triangulation, root, point) == [(6, 5, 5)]
        assert root.trusted == 0
        assert [Simplex(child.vertices) for child in root.children] == root.simplex.split(point, tolerance=TOLERANCE)


@pytest.mark.parametrize("grown", [GRID[-1]], indirect=True)
def test_solve_share_on_the_labelled_grid(grown, monkeypatch):
    """The slow path stays the exception on the benchmark's own tree."""
    counts = {"nodes": 0, "solved": 0}
    descend = IncrementalTriangulation._descend
    descend_by_solves = IncrementalTriangulation._descend_by_solves

    def counting_descend(self, node, weights, point):
        counts["nodes"] += 1
        return descend(self, node, weights, point)

    def counting_descend_by_solves(self, node, point):
        counts["solved"] += 1
        return descend_by_solves(self, node, point)

    monkeypatch.setattr(IncrementalTriangulation, "_descend", counting_descend)
    monkeypatch.setattr(IncrementalTriangulation, "_descend_by_solves", counting_descend_by_solves)
    for _, point, _, _ in grown.inside:
        grown.tree.locate(point)
    assert counts["nodes"] > 1000
    assert 0 < counts["solved"] / counts["nodes"] < SOLVE_SHARE_CEILING


def run_mixed_sequence() -> tuple[SimplexTree, list]:
    """600 seeded ops on a 4-d tree with ε = 0.2: inserts, updates of stored points, ε-skips."""
    rng = np.random.default_rng(20011)
    tree = SimplexTree(unit_cube_root_vertices(4, margin=1e-6), value_dimension=3, epsilon=0.2)
    pool = rng.random((400, 4)) * 0.9 + 0.05
    outcomes = []
    for _ in range(600):
        point = pool[rng.integers(0, len(pool))]
        smooth = np.array([np.sin(3.0 * point[0]) + point[1], point[2] * point[3], 1.0 + 0.5 * point[0]])
        outcomes.append(tree.insert(point, smooth + 0.01 * rng.standard_normal(3)))
    return tree, outcomes


def test_mixed_sequence_matches_the_values_of_the_child_by_child_tree():
    """Outcomes, journal, size and counters pinned from commit 079c6a7 (the
    last one whose ``insert`` walked the tree twice, one solve per child)."""
    tree, outcomes = run_mixed_sequence()
    actions = "".join(outcome.action[0] for outcome in outcomes)
    assert {letter: actions.count(letter) for letter in "ius"} == {"i": 227, "u": 238, "s": 135}
    assert (
        hashlib.sha256(actions.encode()).hexdigest()
        == "6fc5d1b4d6e23a9821dcaac1ed1ded7b7ddbe20905e0fb24cd171fdeeb6950a7"
    )
    errors = np.array([outcome.prediction_error for outcome in outcomes])
    assert float(errors.sum()) == pytest.approx(129.0587118291235, rel=1e-11)
    assert errors[::100].tolist() == pytest.approx(
        [
            1.5988581140978648,
            0.35904567254371955,
            0.2566546195313847,
            0.03149864760922272,
            0.03373125196350779,
            0.03069556422940023,
        ],
        rel=1e-10,
    )

    journal = tree.journal
    digest = hashlib.sha256()
    for point, payload, action in journal:
        digest.update(point.tobytes())
        digest.update(payload.tobytes())
        digest.update(action.encode())
    assert len(journal) == 465
    assert digest.hexdigest() == "13b7ec8ebab190df57b08c96904ee1f044122243ac86c58222d0da8a4df965a8"

    assert (tree.n_simplices, tree.depth(), tree.leaf_count(), tree.n_stored_points) == (1136, 7, 909, 227)
    statistics = tree.statistics
    assert (
        statistics.n_lookups,
        statistics.n_predictions,
        statistics.n_inserts,
        statistics.n_updates,
        statistics.n_rejected_inserts,
        statistics.total_traversed,
    ) == (600, 600, 227, 238, 135, 3127)

"""Saving and loading a Simplex Tree.

FeedbackBypass accumulates value across query sessions, so the tree must
survive process restarts.  Because the tree is completely determined by its
configuration (root simplex, payload dimension, ε, tolerance) and the
ordered sequence of insert/update operations, persistence stores exactly
that journal and rebuilds the tree by replaying it — the on-disk format stays
simple and versionable, and the reloaded tree is bit-for-bit identical in
structure and predictions.

The format is a single ``.npz`` archive (compressed NumPy container).
"""

from __future__ import annotations

import os

import numpy as np

from repro.core.simplex_tree import SimplexTree
from repro.utils.validation import ValidationError

#: On-disk format version, bumped on incompatible changes.
FORMAT_VERSION = 1


def save_simplex_tree(tree: SimplexTree, path: str | os.PathLike) -> None:
    """Serialise ``tree`` to ``path`` (an ``.npz`` archive)."""
    journal = tree.journal
    if journal:
        points = np.vstack([point for point, _, _ in journal])
        payloads = np.vstack([payload for _, payload, _ in journal])
        actions = np.asarray([action for _, _, action in journal])
    else:
        points = np.zeros((0, tree.dimension), dtype=np.float64)
        payloads = np.zeros((0, tree.value_dimension), dtype=np.float64)
        actions = np.asarray([], dtype="U8")
    np.savez_compressed(
        path,
        format_version=np.asarray([FORMAT_VERSION]),
        root_vertices=tree.root_simplex.vertices,
        value_dimension=np.asarray([tree.value_dimension]),
        default_value=tree.default_value,
        epsilon=np.asarray([tree.epsilon]),
        tolerance=np.asarray([tree.tolerance]),
        journal_points=points,
        journal_payloads=payloads,
        journal_actions=actions,
    )


def load_simplex_tree(path: str | os.PathLike) -> SimplexTree:
    """Load a Simplex Tree previously written by :func:`save_simplex_tree`."""
    with np.load(path, allow_pickle=False) as archive:
        version = int(np.asarray(archive["format_version"]).ravel()[0])
        if version != FORMAT_VERSION:
            raise ValidationError(
                f"unsupported Simplex Tree format version {version} (expected {FORMAT_VERSION})"
            )
        # ``tolerance`` is an optional key: archives written before it was
        # saved were all replayed with the default, and still are.
        optional = {}
        if "tolerance" in archive.files:
            optional["tolerance"] = float(np.asarray(archive["tolerance"]).ravel()[0])
        tree = SimplexTree(
            archive["root_vertices"],
            value_dimension=int(np.asarray(archive["value_dimension"]).ravel()[0]),
            default_value=archive["default_value"],
            epsilon=float(np.asarray(archive["epsilon"]).ravel()[0]),
            **optional,
        )
        points = archive["journal_points"]
        payloads = archive["journal_payloads"]
        actions = archive["journal_actions"]
    for point, payload, action in zip(points, payloads, actions):
        # Replaying inserted points with force=True reproduces the original
        # geometry even if ε would now reject them (their presence changed
        # later predictions); updates go through the normal path.
        tree.insert(point, payload, force=(str(action) == "inserted"))
    return tree

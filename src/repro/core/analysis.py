"""Structural analysis of a Simplex Tree.

The paper makes two resource claims about the Simplex Tree (Sections 1 and
4.2): its storage grows *linearly with the dimensionality* of the query
space (per stored point: one D-vector plus one N-vector payload), and it
grows with the *complexity of the optimal query mapping* rather than with
the number of processed queries.  This module measures both so the claims
can be checked experimentally (the ``ablation_dimensionality`` entry of
:data:`repro.evaluation.figures.FIGURES`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.simplex_tree import SimplexTree

#: Bytes per stored floating-point value (the tree stores float64 payloads).
BYTES_PER_FLOAT = 8

#: Bookkeeping bytes charged per tree node (child pointers, depth, flags) —
#: an implementation-independent estimate used by :func:`storage_estimate`.
NODE_OVERHEAD_BYTES = 64


@dataclass(frozen=True)
class TreeStorageReport:
    """Breakdown of the memory a Simplex Tree needs.

    Attributes
    ----------
    n_stored_points:
        Number of feedback points stored as vertices.
    n_simplices:
        Total number of simplex nodes.
    point_bytes:
        Bytes spent on the stored query points (D floats each).
    payload_bytes:
        Bytes spent on the stored OQP payloads (N floats each, root corners
        included).
    structure_bytes:
        Estimated bookkeeping bytes for the node hierarchy.
    """

    n_stored_points: int
    n_simplices: int
    point_bytes: int
    payload_bytes: int
    structure_bytes: int

    @property
    def total_bytes(self) -> int:
        """Total estimated bytes."""
        return self.point_bytes + self.payload_bytes + self.structure_bytes

    @property
    def bytes_per_stored_point(self) -> float:
        """Average bytes per stored feedback point (0 for an empty tree)."""
        if self.n_stored_points == 0:
            return 0.0
        return self.total_bytes / self.n_stored_points


def storage_estimate(tree: SimplexTree) -> TreeStorageReport:
    """Estimate the storage footprint of ``tree``.

    The estimate counts the data the structure fundamentally has to keep —
    stored points, per-vertex payloads and the node hierarchy — rather than
    Python-object overhead, so it reflects the paper's asymptotic claim
    (per stored point the cost is ``O(D + N)``, i.e. linear in the
    dimensionality).
    """
    dimension = tree.dimension
    value_dimension = tree.value_dimension
    n_points = tree.n_stored_points
    n_vertices_with_payload = n_points + dimension + 1  # stored points + root corners
    point_bytes = n_points * dimension * BYTES_PER_FLOAT
    payload_bytes = n_vertices_with_payload * value_dimension * BYTES_PER_FLOAT
    structure_bytes = tree.n_simplices * NODE_OVERHEAD_BYTES
    return TreeStorageReport(
        n_stored_points=n_points,
        n_simplices=tree.n_simplices,
        point_bytes=point_bytes,
        payload_bytes=payload_bytes,
        structure_bytes=structure_bytes,
    )


def iter_nodes(tree: SimplexTree):
    """Yield every node of the simplex hierarchy, parents before children."""
    stack = [tree.root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)

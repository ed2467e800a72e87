"""The paper's primary contribution: FeedbackBypass and the Simplex Tree.

* :mod:`repro.core.oqp` — the optimal-query-parameter (OQP) value object
  ``(Δ, W)`` and its packing into the flat vectors the tree stores,
* :mod:`repro.core.interpolation` — the unbalanced-Haar (barycentric)
  interpolation of OQPs inside a simplex,
* :mod:`repro.core.simplex_tree` — the Simplex Tree index with Lookup,
  Predict and ε-gated Insert (Section 4),
* :mod:`repro.core.bootstrap` — the FeedbackBypass for normalised
  histograms, the paper's query domain,
* :mod:`repro.core.persistence` — saving and loading a tree,
* :mod:`repro.core.bypass` — the :class:`FeedbackBypass` facade with the
  ``mopt`` / ``insert`` interface of Figure 5.
"""

from repro.core.analysis import TreeStorageReport, storage_estimate
from repro.core.bootstrap import bypass_for_histograms
from repro.core.bypass import FeedbackBypass
from repro.core.interpolation import interpolate_payloads
from repro.core.oqp import OptimalQueryParameters
from repro.core.persistence import load_simplex_tree, save_simplex_tree
from repro.core.simplex_tree import SimplexTree, TreeStatistics

__all__ = [
    "TreeStorageReport",
    "storage_estimate",
    "bypass_for_histograms",
    "FeedbackBypass",
    "interpolate_payloads",
    "OptimalQueryParameters",
    "load_simplex_tree",
    "save_simplex_tree",
    "SimplexTree",
    "TreeStatistics",
]

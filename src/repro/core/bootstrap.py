"""Root-simplex bootstrapping for the common query domains.

Section 4.1 of the paper gives two recipes for the initial simplex ``S_0``:
the ``(0,…,0), (D,0,…,0), …`` construction for ``[0,1]^D`` and the standard
simplex for normalised histograms with a dropped bin.  The paper's corpus is
histograms, so the one helper here builds a ready-to-use
:class:`~repro.core.bypass.FeedbackBypass` for that case; the other root
simplices live in :mod:`repro.geometry.bounding`.
"""

from __future__ import annotations

from repro.core.bypass import FeedbackBypass
from repro.geometry.bounding import standard_simplex_vertices
from repro.utils.validation import check_dimension


def bypass_for_histograms(
    n_bins: int,
    *,
    epsilon: float = 0.0,
    margin: float = 1e-6,
    weight_dimension: int | None = None,
) -> FeedbackBypass:
    """FeedbackBypass for normalised histograms with ``n_bins`` bins.

    Dropping the last bin embeds the histograms into the standard simplex of
    dimension ``D = n_bins - 1`` (Example 1 of the paper: 32 bins give a
    mapping from R^31 to R^62).  A tiny ``margin`` inflates the root simplex
    so histograms lying exactly on the boundary (e.g. all mass in one bin)
    stay strictly inside.
    """
    n_bins = check_dimension(n_bins, "n_bins", minimum=2)
    dimension = n_bins - 1
    vertices = standard_simplex_vertices(dimension, margin=margin)
    return FeedbackBypass(
        vertices, dimension, weight_dimension=weight_dimension, epsilon=epsilon
    )


"""Distance-function substrate.

Section 2 of the paper frames interactive retrieval in a vector-space model:
objects are D-dimensional feature vectors, similarity is a parameterised
distance function, and relevance feedback searches the parameter space of
that function.  This subpackage holds the distances the library runs:

* the weighted Euclidean distance of Equation 1, the one family the
  feedback loop, the scan's per-row weights, the Simplex Tree's payload and
  the wire all carry as ``(Δ, W)``,
* L_p (Minkowski) norms and their weighted variants (the k-NN ablation
  builds its metric indexes on the L_2 member), and
* the parameter-vector packing used by FeedbackBypass (``W`` ∈ R^P with the
  "fix one weight" normalisation that removes the redundant degree of
  freedom).
"""

from repro.distances.base import DistanceFunction
from repro.distances.minkowski import MinkowskiDistance, cityblock, euclidean
from repro.distances.weighted_euclidean import WeightedEuclideanDistance
from repro.distances.parameters import (
    default_weight_vector,
    normalize_weights,
    pack_oqp_vector,
    unpack_oqp_vector,
    weights_from_parameters,
)

__all__ = [
    "DistanceFunction",
    "MinkowskiDistance",
    "cityblock",
    "euclidean",
    "WeightedEuclideanDistance",
    "default_weight_vector",
    "normalize_weights",
    "pack_oqp_vector",
    "unpack_oqp_vector",
    "weights_from_parameters",
]

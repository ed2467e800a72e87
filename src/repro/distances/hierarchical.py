"""The Rui–Huang hierarchical similarity model.

Rui and Huang (CVPR 2000, cited as [RH00]) generalise re-weighting to a
two-level model: an object is described by several *features* (e.g. colour
histogram, texture, shape), each feature is a vector compared with its own
(quadratic or weighted Euclidean) distance, and the overall distance is a
weighted sum of the per-feature distances.  Feedback then adjusts both the
intra-feature weights and the inter-feature weights.

FeedbackBypass treats this model exactly like any other parameterised
distance class: the concatenation of all intra- and inter-feature weights is
the parameter vector ``W`` stored in the Simplex Tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distances.base import DistanceFunction
from repro.distances.weighted_euclidean import WeightedEuclideanDistance
from repro.utils.validation import ValidationError, as_float_vector


@dataclass(frozen=True)
class FeatureGroup:
    """A named slice of the full feature vector.

    Attributes
    ----------
    name:
        Human-readable feature name ("color", "texture", ...).
    start, stop:
        Half-open slice ``[start, stop)`` into the concatenated feature
        vector.
    """

    name: str
    start: int
    stop: int

    @property
    def dimension(self) -> int:
        """Number of components in this feature."""
        return self.stop - self.start

    def slice(self) -> slice:
        """Return the Python slice selecting this feature."""
        return slice(self.start, self.stop)


class HierarchicalDistance(DistanceFunction):
    """Weighted sum of per-feature weighted Euclidean distances.

    Parameters
    ----------
    groups:
        Feature groups partitioning ``range(dimension)``.
    feature_weights:
        Inter-feature weights (one per group, default all ones).
    component_weights:
        Intra-feature weights (length ``dimension``, default all ones).
    """

    def __init__(
        self,
        dimension: int,
        groups: list[FeatureGroup],
        feature_weights=None,
        component_weights=None,
    ) -> None:
        super().__init__(dimension)
        if not groups:
            raise ValidationError("at least one feature group is required")
        covered = sorted((group.start, group.stop) for group in groups)
        position = 0
        for start, stop in covered:
            if start != position or stop <= start:
                raise ValidationError("feature groups must partition the feature vector")
            position = stop
        if position != dimension:
            raise ValidationError(
                f"feature groups cover {position} components but dimension is {dimension}"
            )
        self._groups = list(groups)

        if feature_weights is None:
            feature_weights = np.ones(len(groups), dtype=np.float64)
        self._feature_weights = as_float_vector(
            feature_weights, name="feature_weights", dim=len(groups)
        )
        if component_weights is None:
            component_weights = np.ones(dimension, dtype=np.float64)
        self._component_weights = as_float_vector(
            component_weights, name="component_weights", dim=dimension
        )
        if np.any(self._feature_weights < 0) or np.any(self._component_weights < 0):
            raise ValidationError("weights must be non-negative")

        self._sub_distances = [
            WeightedEuclideanDistance(
                group.dimension, weights=self._component_weights[group.slice()]
            )
            for group in self._groups
        ]

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def groups(self) -> list[FeatureGroup]:
        """The feature groups (copy of the list)."""
        return list(self._groups)

    @property
    def feature_weights(self) -> np.ndarray:
        """Inter-feature weights (copy)."""
        return self._feature_weights.copy()

    @property
    def component_weights(self) -> np.ndarray:
        """Intra-feature weights (copy)."""
        return self._component_weights.copy()

    # ------------------------------------------------------------------ #
    # Parameter interface
    # ------------------------------------------------------------------ #
    @property
    def n_parameters(self) -> int:
        return self.dimension + len(self._groups)

    def parameters(self) -> np.ndarray:
        return np.concatenate([self._component_weights, self._feature_weights])

    def with_parameters(self, parameters) -> "HierarchicalDistance":
        parameters = as_float_vector(parameters, name="parameters", dim=self.n_parameters)
        component = parameters[: self.dimension]
        feature = parameters[self.dimension :]
        return HierarchicalDistance(
            self.dimension,
            self._groups,
            feature_weights=feature,
            component_weights=component,
        )

    # ------------------------------------------------------------------ #
    # Distance computation
    # ------------------------------------------------------------------ #
    def distance(self, first, second) -> float:
        first = self._validate_point(first, "first")
        second = self._validate_point(second, "second")
        total = 0.0
        for group, weight, sub in zip(self._groups, self._feature_weights, self._sub_distances):
            total += weight * sub.distance(first[group.slice()], second[group.slice()])
        return float(total)

    def distances_to(self, query, points) -> np.ndarray:
        query = self._validate_point(query, "query")
        points = self._validate_points(points)
        totals = np.zeros(points.shape[0], dtype=np.float64)
        for group, weight, sub in zip(self._groups, self._feature_weights, self._sub_distances):
            totals += weight * sub.distances_to(query[group.slice()], points[:, group.slice()])
        return totals

    def pairwise(self, queries, points, *, workspace=None) -> np.ndarray:
        """Matrix form: the weighted sum of the per-feature pairwise matrices.

        The loop over feature groups is inherent to the model (each group has
        its own sub-distance); everything inside a group is the fully
        vectorised weighted-Euclidean matrix form.  The corpus workspace is
        built for the full-width matrix, not the per-group column slices the
        sub-distances see, so it cannot be threaded through and is ignored.
        """
        queries = self._validate_points(queries, name="queries")
        points = self._validate_points(points)
        totals = np.zeros((queries.shape[0], points.shape[0]), dtype=np.float64)
        for group, weight, sub in zip(self._groups, self._feature_weights, self._sub_distances):
            totals += weight * sub.pairwise(queries[:, group.slice()], points[:, group.slice()])
        return totals

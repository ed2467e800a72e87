"""The FeedbackBypass facade.

:class:`FeedbackBypass` is the module of Figure 4: it sits next to the
feedback engine, answers ``mopt(q)`` with predicted optimal query parameters
before the first search, and receives ``insert(q, oqp)`` with the parameters
the feedback loop converged to.  Internally it is a thin, typed wrapper
around the :class:`~repro.core.simplex_tree.SimplexTree`.
"""

from __future__ import annotations

import numpy as np

from repro.core.oqp import OptimalQueryParameters
from repro.core.simplex_tree import InsertOutcome, SimplexTree
from repro.utils.validation import ValidationError, as_float_vector, check_dimension


class FeedbackBypass:
    """Stores and predicts optimal query parameters across query sessions.

    Parameters
    ----------
    root_vertices:
        Vertices of the root simplex covering the query domain (use the
        helpers in :mod:`repro.core.bootstrap` for the common cases).
    query_dimension:
        Dimensionality D of the query space.
    weight_dimension:
        Number P of distance parameters; defaults to D (one weight per
        feature component, the weighted-Euclidean case of the experiments).
    epsilon:
        Insert threshold ε of the underlying Simplex Tree.
    tolerance:
        Geometric tolerance of the underlying Simplex Tree.
    """

    def __init__(
        self,
        root_vertices,
        query_dimension: int,
        *,
        weight_dimension: int | None = None,
        epsilon: float = 0.0,
        tolerance: float = 1e-9,
    ) -> None:
        query_dimension = check_dimension(query_dimension, "query_dimension")
        if weight_dimension is None:
            weight_dimension = query_dimension
        weight_dimension = check_dimension(weight_dimension, "weight_dimension")
        self._query_dimension = query_dimension
        self._weight_dimension = weight_dimension
        default = OptimalQueryParameters.default(query_dimension, weight_dimension)
        self._tree = SimplexTree(
            root_vertices,
            value_dimension=query_dimension + weight_dimension,
            default_value=default.to_vector(),
            epsilon=epsilon,
            tolerance=tolerance,
        )

    # ------------------------------------------------------------------ #
    # Alternative constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_tree(cls, tree: SimplexTree, query_dimension: int) -> "FeedbackBypass":
        """Wrap an existing Simplex Tree (e.g. one reloaded from disk).

        The weight dimension is inferred from the tree's payload size
        (``P = N - D``); the tree is adopted as-is, so predictions of the
        returned instance coincide with the tree's.
        """
        query_dimension = check_dimension(query_dimension, "query_dimension")
        if tree.dimension != query_dimension:
            raise ValidationError(
                "tree dimensionality does not match the requested query dimension "
                f"({tree.dimension} vs {query_dimension})"
            )
        weight_dimension = tree.value_dimension - query_dimension
        if weight_dimension < 1:
            raise ValidationError("tree payloads are too short to contain distance weights")
        instance = cls.__new__(cls)
        instance._query_dimension = query_dimension
        instance._weight_dimension = weight_dimension
        instance._tree = tree
        return instance

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def tree(self) -> SimplexTree:
        """The underlying Simplex Tree (for statistics and persistence)."""
        return self._tree

    @property
    def query_dimension(self) -> int:
        """Dimensionality D of the query space."""
        return self._query_dimension

    @property
    def weight_dimension(self) -> int:
        """Number P of distance parameters."""
        return self._weight_dimension

    @property
    def epsilon(self) -> float:
        """The insert threshold ε."""
        return self._tree.epsilon

    @property
    def n_stored_queries(self) -> int:
        """Number of queries whose OQPs are stored as tree vertices."""
        return self._tree.n_stored_points

    # ------------------------------------------------------------------ #
    # The Figure-5 interface
    # ------------------------------------------------------------------ #
    def mopt(self, query_point) -> OptimalQueryParameters:
        """Predict the optimal query parameters for ``query_point``.

        For an already-stored query the prediction coincides with the stored
        parameters; for a new query it is the wavelet interpolation inside
        the enclosing simplex; for a query outside the root simplex (which
        cannot happen when the root was built to cover the domain) the
        defaults are returned.
        """
        query_point = as_float_vector(query_point, name="query_point", dim=self._query_dimension)
        vector = self._tree.predict(query_point)
        return OptimalQueryParameters.from_vector(vector, self._query_dimension)

    def mopt_batch(self, query_points) -> list[OptimalQueryParameters]:
        """Predict the optimal query parameters for a whole query batch.

        Equivalent to ``[self.mopt(q) for q in query_points]`` but routed
        through :meth:`SimplexTree.predict_batch`, which shares the traversal
        bookkeeping across the batch — this is how the first round of a
        multi-user workload obtains all its predictions in one call.
        """
        query_points = np.asarray(query_points, dtype=np.float64)
        vectors = self._tree.predict_batch(query_points)
        return [
            OptimalQueryParameters.from_vector(vector, self._query_dimension)
            for vector in vectors
        ]

    def insert(self, query_point, parameters: OptimalQueryParameters) -> InsertOutcome:
        """Store the parameters a feedback loop converged to for ``query_point``.

        The insertion is skipped (without error) when the current prediction
        is already within ε of the supplied parameters — Section 4.2's rule
        that only points which improve the approximation are stored.
        """
        query_point = as_float_vector(query_point, name="query_point", dim=self._query_dimension)
        if parameters.query_dimension != self._query_dimension:
            raise ValidationError("parameter delta dimensionality does not match the query space")
        if parameters.weight_dimension != self._weight_dimension:
            raise ValidationError("parameter weight dimensionality does not match this instance")
        return self._tree.insert(query_point, parameters.to_vector())

    def insert_batch(self, query_points, parameters: list[OptimalQueryParameters]) -> list[InsertOutcome]:
        """Store converged parameters for many queries, in order.

        This is how a cohort retired from the feedback frontier
        (:class:`~repro.feedback.scheduler.FeedbackFrontier`) trains the
        tree: one call ingests every query's converged OQPs.  Insertions are
        applied sequentially — each one refines the triangulation the next
        prediction is gated against, and the tree's journal (which
        persistence replays) must stay an ordered log — so the batching is
        in the API, not a bulk-load shortcut.
        """
        query_points = np.asarray(query_points, dtype=np.float64)
        if query_points.ndim != 2 or query_points.shape[0] != len(parameters):
            raise ValidationError("insert_batch needs one parameter object per query point")
        return [
            self.insert(query_point, parameter)
            for query_point, parameter in zip(query_points, parameters)
        ]

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    @classmethod
    def load(cls, path, query_dimension: int) -> "FeedbackBypass":
        """Reload a FeedbackBypass whose :attr:`tree` was saved with
        :func:`~repro.core.persistence.save_simplex_tree`.

        ``query_dimension`` must match the dimension the tree was built for
        (the weight dimension is recovered from the stored payload size).
        """
        from repro.core.persistence import load_simplex_tree

        return cls.from_tree(load_simplex_tree(path), query_dimension)

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def predict_for_engine_batch(
        self, query_points
    ) -> tuple[list[OptimalQueryParameters], np.ndarray, np.ndarray]:
        """Return ``(predictions, deltas, weights)`` for a query batch.

        The stacked ``deltas`` / ``weights`` rows feed straight into
        :meth:`~repro.database.engine.RetrievalEngine.search_batch_with_parameters`;
        the prediction objects stay available for per-query bookkeeping
        (journaling, default detection).
        """
        predictions = self.mopt_batch(query_points)
        deltas = np.vstack([prediction.delta for prediction in predictions])
        weights = np.vstack([prediction.weights for prediction in predictions])
        return predictions, deltas, weights

    def statistics(self) -> dict[str, float]:
        """Return the tree's operation counters plus structural measurements."""
        snapshot = self._tree.statistics.snapshot()
        snapshot.update(
            {
                "n_stored_queries": float(self.n_stored_queries),
                "n_simplices": float(self._tree.n_simplices),
                "depth": float(self._tree.depth()),
            }
        )
        return snapshot

"""Abstract interface shared by every distance function in the library."""

from __future__ import annotations

import abc

import numpy as np

from repro.utils.validation import ValidationError, as_float_matrix, as_float_vector

#: Relative margin of the exact-precision matrix expansions: the float64
#: Gram forms lose a few low-order bits to cancellation, so candidate
#: selection widens the k-th distance by this fraction of the row's
#: distance scale (several orders of magnitude above the observed error).
EXACT_MARGIN_SCALE = 1e-6

#: Relative margin of the ``precision="fast"`` float32 kernels.  Fast
#: matrices stay on the kernel's *natural* scale — squared distances for
#: the Gram expansions, the p-th power sum for Minkowski — which
#: skips the full-matrix root **and** avoids the sqrt amplification that
#: would blow float32 cancellation noise up to ~sqrt(eps32) near zero: on
#: that scale the absolute error of a value stays within ~(D + 2p)·eps32
#: of the row's :meth:`DistanceFunction.term_bound`.  Widening candidates
#: by 1e-4 of that bound (floored at 1.0) covers the worst case up to
#: several hundred dimensions, which is what makes the exact float64
#: re-scoring pass byte-identical rather than merely close — while keeping
#: candidate pools a few dozen rows even at million-vector scale.
FAST_MARGIN_SCALE = 1e-4

#: The float32 stage runs only while every term it forms — the bound of
#: :meth:`DistanceFunction.term_bound`, the squared centred coordinates and
#: the parameters themselves — stays below this value: eight decades inside
#: float32's 3.4e38, so no intermediate can overflow into ``inf - inf``.
FLOAT32_TERM_LIMIT = 1e30

#: The two precision modes of :meth:`DistanceFunction.pairwise`.
PRECISIONS = ("exact", "fast")


def check_precision(precision: str) -> str:
    """Validate a ``precision=`` argument (``"exact"`` or ``"fast"``)."""
    if precision not in PRECISIONS:
        raise ValidationError(
            f"precision must be one of {PRECISIONS}, got {precision!r}"
        )
    return precision


def block_workspace(points, workspace, dimension: int):
    """``workspace`` if it owns ``points`` (validated when its collection was
    built), else the validated ``points`` in a workspace of their own."""
    if workspace is not None and workspace.owns(points) and points.shape[1] == dimension:
        return workspace
    # The database layer imports this module: resolved at call time.
    from repro.database.collection import CorpusWorkspace

    return CorpusWorkspace(as_float_matrix(points, name="points", shape=(None, dimension)))


class RowwiseKernel:
    """The block kernel of a family without a matrix form: float64 ``distances_to`` rows."""

    __slots__ = ("distance", "queries")

    precision = "exact"
    norms = None

    def __init__(self, distance: "DistanceFunction", queries: np.ndarray) -> None:
        self.distance, self.queries = distance, queries

    def __call__(self, view) -> np.ndarray:
        matrix = np.empty((self.queries.shape[0], view.matrix.shape[0]), dtype=np.float64)
        for row, query in enumerate(self.queries):
            matrix[row] = self.distance.distances_to(query, view.matrix)
        return matrix


class DistanceFunction(abc.ABC):
    """A parameterised distance on R^D.

    Concrete subclasses implement the point-to-point distance and the
    vectorised point-to-matrix form used by the k-NN engines.  The
    ``parameters`` / ``with_parameters`` pair exposes the distance's free
    parameters as a flat vector, which is what relevance feedback adjusts and
    what FeedbackBypass stores in the Simplex Tree.
    """

    def __init__(self, dimension: int) -> None:
        self._dimension = int(dimension)

    @property
    def dimension(self) -> int:
        """Dimensionality D of the feature space."""
        return self._dimension

    # ------------------------------------------------------------------ #
    # Parameter interface
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def parameters(self) -> np.ndarray:
        """Return the current parameter vector."""

    @abc.abstractmethod
    def with_parameters(self, parameters) -> "DistanceFunction":
        """Return a new distance of the same class with the given parameters."""

    # ------------------------------------------------------------------ #
    # Distance computation
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def distance(self, first, second) -> float:
        """Distance between two points."""

    @abc.abstractmethod
    def distances_to(self, query, points) -> np.ndarray:
        """Distances from ``query`` to every row of ``points`` (vectorised)."""

    # ------------------------------------------------------------------ #
    # Batch (matrix-form) distance computation
    # ------------------------------------------------------------------ #
    def pairwise(self, queries, points, *, workspace=None, precision: str = "exact") -> np.ndarray:
        """Distance matrix between every query row and every point row.

        Parameters
        ----------
        queries:
            ``(Q, D)`` matrix of query points.
        points:
            ``(N, D)`` matrix of database points.
        workspace:
            Optional :class:`~repro.database.collection.CorpusWorkspace` of
            ``points`` (or a :class:`~repro.database.collection.CorpusBlockView`
            of the block being scanned).  Kernels that expand the distance
            algebraically read their corpus-side terms (centred matrix,
            element-wise squares, norms) from it instead of recomputing them
            per batch — the zero-recompute hot path of the scan engines.  A
            workspace built for a *different* matrix is ignored (checked via
            :meth:`~repro.database.collection.CorpusWorkspace.owns`), so
            passing one is always safe.  The matrix a workspace owns was
            validated finite when its collection was built and is read-only
            since, so it is not re-validated; every other ``points`` is.
        precision:
            ``"exact"`` (default) computes true distances in float64.
            ``"fast"`` lets the kernel compute the matrix in **float32** —
            roughly twice the BLAS throughput and half the memory traffic —
            and return it on its *natural monotone scale*: the bundled
            kernels return squared distances (weighted Euclidean) or the
            p-th power sum (Minkowski), skipping the root over the full
            ``(Q, N)`` matrix.  A fast matrix is an
            order-embedding of the distance, approximate in the low bits;
            callers that need exact results (the scan engines) must treat it
            as candidate-selection input only: widen the k-th value by
            :data:`FAST_MARGIN_SCALE` of :meth:`term_bound` and re-score the
            candidates through :meth:`distances_to` in float64.  Candidate
            selection only needs the ordering, which every monotone
            transform preserves.  Distances without a float32 specialisation
            silently serve ``"fast"`` through the exact kernel (correct,
            just not faster).

        Returns
        -------
        numpy.ndarray
            ``(Q, N)`` matrix with ``result[i, j] = d(queries[i], points[j])``
            (float32 when a fast kernel served the request).

        Validates the queries (and a ``points`` no workspace owns), then
        runs :meth:`block_kernel` over the whole matrix: the scan calls the
        same kernel block by block, so there is one kernel per family.
        """
        check_precision(precision)
        queries = self._validate_points(queries, name="queries")
        workspace = block_workspace(points, workspace, self._dimension)
        return self.block_kernel(queries, queries - workspace.mean, precision)(workspace)

    def block_kernel(self, queries: np.ndarray, centred: np.ndarray, precision: str):
        """The kernel of already validated ``queries`` (``centred``: minus the corpus mean).

        Every query-side term is formed here, once per request; calling the
        kernel on a workspace or a block view returns that block's
        C-contiguous query-major ``(Q, rows)`` matrix.  It carries the
        ``precision`` it computes in and the float64 weighted query
        ``norms`` of a Gram expansion (else ``None``) for the scan's margin.
        The base family evaluates one :meth:`distances_to` row per query.
        """
        return RowwiseKernel(self, queries)

    def term_bound(self, reach: np.ndarray) -> "np.ndarray | None":
        """Per query row, a bound on every value the matrix kernels form.

        ``reach[i, d]`` bounds the magnitude of every centred coordinate ``d``
        the kernel meets for query row ``i``: ``|q_d - mean_d|`` plus the
        corpus's largest ``|x_d - mean_d|``.  On the kernel's natural scale
        (squared distances, p-th power sums) the result covers the
        distances, the norm terms and the cross products; the scan sizes
        candidate margins from it and takes the float32 stage only below
        :data:`FLOAT32_TERM_LIMIT`.  ``None`` (the default): no float32
        kernel, the scan runs the family in float64.
        """
        return None

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    def _validate_point(self, point, name: str = "point") -> np.ndarray:
        return as_float_vector(point, name=name, dim=self._dimension)

    def _validate_points(self, points, name: str = "points") -> np.ndarray:
        return as_float_matrix(points, name=name, shape=(None, self._dimension))

    def __call__(self, first, second) -> float:
        return self.distance(first, second)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(dimension={self._dimension})"

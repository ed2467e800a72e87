"""The feature collection: vectors, labels and bulk access.

A :class:`FeatureCollection` is the minimal database abstraction the rest of
the library needs — a dense matrix of feature vectors with optional string
labels (the image categories of the evaluation corpus) and convenience
constructors from an :class:`~repro.features.datasets.ImageDataset`.

The collection also owns the :class:`CorpusWorkspace` of its matrix: the
corpus-side quantities every batched distance kernel would otherwise
re-derive per call (the mean, the float32 centred matrix, the weighted
point norms) are computed once per collection and handed to
:meth:`~repro.distances.base.DistanceFunction.block_kernel`, so a scan request
streams the float32 centred matrix once and nothing else corpus-sized.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.utils.validation import ValidationError, as_float_matrix, as_float_vector

#: Weight vectors whose point norms a workspace keeps (oldest out first).
MAX_CACHED_NORMS = 8

#: Corpus rows per step when the float64 point norms are computed.
_NORM_BLOCK_ROWS = 8192


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class CorpusWorkspace:
    """Precomputed corpus-side terms shared by the batched distance kernels.

    The default scan is a float32 candidate stage plus exact float64
    re-scoring (:mod:`repro.database.knn`), so the workspace holds what that
    stage reads and builds everything else only on demand:

    ``matrix``
        The collection's C-contiguous read-only ``(N, D)`` float64 matrix —
        the exact row-wise kernels (``distances_to``) run straight over it.
    ``mean`` / ``extent``
        Column means, and per column the largest ``|x - mean|`` of the
        corpus (both eager, ``D`` floats).  Every kernel centres on the
        mean; the scan bounds its terms with ``extent``
        (:meth:`~repro.distances.base.DistanceFunction.term_bound`).
    ``centered32``
        ``matrix - mean`` computed in float64 and stored float32 (lazy, one
        streaming pass with no float64 temporary): the right-hand side of
        every float32 candidate product.
    :meth:`point_norms`
        ``Σ_d w_d·c_jd²`` per centred row for a weight vector, computed in
        float64 and stored float32, kept for the last
        :data:`MAX_CACHED_NORMS` weight vectors — a request under known weights
        reads no corpus-sized term but :attr:`centered32`.
    ``centered_squared32``
        Float32 squares of :attr:`centered32` (lazy): only the
        per-query-weight kernel reads it.
    ``centered`` / ``centered_squared``
        The float64 centred matrix and its squares (lazy): only the
        ``precision="exact"`` override and a direct exact ``pairwise`` read
        them.

    Every centred term is stored **dimension-major**, a C-contiguous
    ``(D, N)`` matrix, so a kernel's product ``(Q, D) @ centred`` comes out
    query-major and contiguous, with one long row per query.

    All arrays are read-only; the workspace is valid for the lifetime of the
    matrix it was built from (:meth:`owns` lets a kernel verify it was
    handed the workspace of the very matrix it is scanning).  Everything in
    here is a pure function of the matrix bits, so two processes attaching
    the same shared-memory corpus build bit-identical workspaces.  Each lazy
    term is built once: concurrent first readers wait on one workspace lock,
    held only while a term is being filled, and all get the same array.

    :meth:`block` hands out row-range views for the blocked scans: a view
    shares every array's memory with this workspace (no corpus-sized copy
    per block) while satisfying the same kernel-facing interface.
    """

    __slots__ = (
        "matrix",
        "mean",
        "extent",
        "_centered",
        "_centered_squared",
        "_centered32",
        "_centered_squared32",
        "_norms",
        "_fill_lock",
    )

    #: First corpus row of the workspace's rows (a :class:`CorpusBlockView` has its own).
    start = 0

    def __init__(self, matrix: np.ndarray) -> None:
        if matrix.ndim != 2:
            raise ValidationError("a corpus workspace needs a 2-D matrix")
        self.matrix = matrix
        mean = _frozen(matrix.mean(axis=0))
        self.mean = mean
        self.extent = _frozen(np.maximum(matrix.max(axis=0) - mean, mean - matrix.min(axis=0)))
        self._centered: np.ndarray | None = None
        self._centered_squared: np.ndarray | None = None
        self._centered32: np.ndarray | None = None
        self._centered_squared32: np.ndarray | None = None
        self._norms: dict[bytes, np.ndarray] = {}
        # Re-entrant: a fill may read another lazy term (the squares read
        # the centred matrix they square).
        self._fill_lock = threading.RLock()

    def _filled(self, slot: str, build) -> np.ndarray:
        """The lazy term in ``slot``, built by ``build()`` on its first read only."""
        value = getattr(self, slot)
        if value is None:
            with self._fill_lock:
                value = getattr(self, slot)
                if value is None:
                    value = _frozen(build())
                    setattr(self, slot, value)
        return value

    def _centred_mirror(self, dtype) -> np.ndarray:
        """``(matrix - mean)ᵀ`` as a C-contiguous ``(D, N)`` matrix of ``dtype``.

        Computed in float64 and written straight through the transpose of
        the output, so no temporary of either layout is allocated.
        """
        mirror = np.empty(self.matrix.shape[::-1], dtype=dtype)
        np.subtract(self.matrix, self.mean, out=mirror.T, casting="same_kind")
        return mirror

    @property
    def centered(self) -> np.ndarray:
        """Float64 centred matrix ``(matrix - mean)ᵀ``, ``(D, N)`` (lazy, cached, read-only)."""
        return self._filled("_centered", lambda: self._centred_mirror(np.float64))

    @property
    def centered_squared(self) -> np.ndarray:
        """Element-wise squares of :attr:`centered` (lazy, cached, read-only)."""
        return self._filled("_centered_squared", lambda: self.centered * self.centered)

    @property
    def centered32(self) -> np.ndarray:
        """Float32 centred matrix, ``(D, N)``, computed in float64 (lazy, cached, read-only)."""
        return self._filled("_centered32", lambda: self._centred_mirror(np.float32))

    @property
    def centered_squared32(self) -> np.ndarray:
        """Element-wise squares of :attr:`centered32`, computed in float32."""
        return self._filled("_centered_squared32", lambda: np.square(self.centered32))

    def point_norms(self, weights: np.ndarray) -> np.ndarray:
        """``Σ_d w_d·c_jd²`` per row, ``c_j`` the centred row.

        Computed in float64 a few thousand rows at a time, stored float32,
        and cached by the weights' bytes for the last
        :data:`MAX_CACHED_NORMS` weight vectors.
        """
        key = weights.tobytes()
        norms = self._norms.get(key)
        if norms is not None:
            return norms
        with self._fill_lock:
            norms = self._norms.get(key)
            if norms is None:
                norms = np.empty(self.matrix.shape[0], dtype=np.float32)
                for start in range(0, norms.shape[0], _NORM_BLOCK_ROWS):
                    centered = self.matrix[start : start + _NORM_BLOCK_ROWS] - self.mean
                    norms[start : start + centered.shape[0]] = np.einsum(
                        "ij,ij->i", centered * weights, centered
                    )
                if len(self._norms) >= MAX_CACHED_NORMS:
                    self._norms.pop(list(self._norms)[0], None)
                self._norms[key] = norms = _frozen(norms)
        return norms

    def owns(self, points: np.ndarray) -> bool:
        """True when ``points`` is the very matrix this workspace was built from."""
        return points is self.matrix

    def block(self, start: int, stop: int) -> "CorpusBlockView":
        """A row-range view ``[start, stop)`` of this workspace.

        The view's arrays are slices — rows ``[start, stop)`` of the matrix
        and columns ``[start, stop)`` of the ``(D, N)`` centred terms, each
        a view with unit stride along the corpus — so a block costs a
        handful of array headers, never a copy.  The blocked scans pass
        ``view.matrix`` as the ``points`` argument and the view itself as
        the ``workspace``, so :meth:`CorpusBlockView.owns` holds by object
        identity exactly as it does for the full workspace.
        """
        n = int(self.matrix.shape[0])
        if not 0 <= start < stop <= n:
            raise ValidationError(f"invalid block [{start}, {stop}) for a {n}-row corpus")
        return CorpusBlockView(self, start, stop)


class CorpusBlockView:
    """One row block of a :class:`CorpusWorkspace`, sharing its memory.

    Satisfies the workspace interface the distance kernels consume (``mean``,
    the centred matrices, :meth:`point_norms`, ``owns``) for the row range
    ``[start, stop)``: the centred terms are the ``(D, stop - start)``
    column slices of the parent's.  The mean is the **full-corpus** mean —
    the centring only exists to keep cancellation error on the distance
    scale, and the exact re-scoring never sees it, so block-level results
    are independent of how the corpus was blocked.
    """

    __slots__ = ("parent", "start", "stop", "matrix", "mean")

    def __init__(self, parent: CorpusWorkspace, start: int, stop: int) -> None:
        self.parent = parent
        self.start = int(start)
        self.stop = int(stop)
        self.matrix = parent.matrix[start:stop]
        self.mean = parent.mean

    @property
    def centered(self) -> np.ndarray:
        return self.parent.centered[:, self.start : self.stop]

    @property
    def centered_squared(self) -> np.ndarray:
        return self.parent.centered_squared[:, self.start : self.stop]

    @property
    def centered32(self) -> np.ndarray:
        return self.parent.centered32[:, self.start : self.stop]

    @property
    def centered_squared32(self) -> np.ndarray:
        return self.parent.centered_squared32[:, self.start : self.stop]

    def point_norms(self, weights: np.ndarray) -> np.ndarray:
        return self.parent.point_norms(weights)[self.start : self.stop]

    def owns(self, points: np.ndarray) -> bool:
        """True when ``points`` is this very block of the parent matrix."""
        return points is self.matrix


class FeatureCollection:
    """An immutable collection of feature vectors with optional labels.

    ``copy=False`` adopts an already-validated read-only float64 C-contiguous
    matrix without copying — the zero-copy path used when a worker process
    attaches a corpus hosted in shared memory
    (:class:`~repro.database.sharding.SharedCorpus`); the caller guarantees
    nothing else writes to the buffer.
    """

    def __init__(self, vectors, labels=None, *, copy: bool = True) -> None:
        vectors = as_float_matrix(vectors, name="vectors")
        if vectors.shape[0] == 0:
            raise ValidationError("a collection must contain at least one vector")
        if copy:
            vectors = np.ascontiguousarray(vectors).copy()
        elif not vectors.flags.c_contiguous:
            raise ValidationError("copy=False requires a C-contiguous matrix")
        self._vectors = vectors
        self._vectors.setflags(write=False)
        self._workspace: CorpusWorkspace | None = None
        self._workspace_lock = threading.Lock()
        if labels is None:
            self._labels: tuple[str, ...] | None = None
            self._labels_array: np.ndarray | None = None
        else:
            labels = tuple(str(label) for label in labels)
            if len(labels) != vectors.shape[0]:
                raise ValidationError("labels must have one entry per vector")
            self._labels = labels
            self._labels_array = np.asarray(labels, dtype=object)
            self._labels_array.setflags(write=False)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of vectors in the collection."""
        return int(self._vectors.shape[0])

    @property
    def dimension(self) -> int:
        """Dimensionality of the feature vectors."""
        return int(self._vectors.shape[1])

    @property
    def vectors(self) -> np.ndarray:
        """The full (read-only) feature matrix."""
        return self._vectors

    @property
    def workspace(self) -> CorpusWorkspace:
        """The distance-kernel workspace of this collection's matrix.

        Materialised on first access and cached for the collection's
        lifetime (the matrix is immutable, so the workspace never goes
        stale).  Building it costs three column reductions (the mean and
        the centred extent); the corpus-sized terms follow lazily, each on
        the first request that reads it — under the default scan that is
        the float32 centred matrix and the point norms of the distance's
        weights, and no float64 copy of the corpus at all.  The batch k-NN
        paths hand it to the distance's
        :meth:`~repro.distances.base.DistanceFunction.block_kernel` so the
        corpus-side terms are never recomputed per query batch.  Concurrent
        first readers build it once and share it, so its lazy terms are
        filled once too.
        """
        if self._workspace is None:
            with self._workspace_lock:
                if self._workspace is None:
                    self._workspace = CorpusWorkspace(self._vectors)
        return self._workspace

    @property
    def labels(self) -> tuple[str, ...] | None:
        """Per-vector labels, or ``None`` when the collection is unlabelled."""
        return self._labels

    @property
    def labels_array(self) -> np.ndarray | None:
        """The labels as a read-only object array (``None`` when unlabelled).

        This is the gather-friendly form behind :meth:`labels_of`; judges
        that must cross process boundaries carry this array instead of the
        whole collection, so a pickled judge costs labels, not vectors.
        """
        return self._labels_array

    def vector(self, index: int) -> np.ndarray:
        """Return a copy of vector ``index``."""
        if not 0 <= index < self.size:
            raise ValidationError(f"index {index} out of range [0, {self.size})")
        return self._vectors[index].copy()

    def label(self, index: int) -> str:
        """Return the label of vector ``index`` (requires a labelled collection)."""
        if self._labels is None:
            raise ValidationError("this collection has no labels")
        if not 0 <= index < self.size:
            raise ValidationError(f"index {index} out of range [0, {self.size})")
        return self._labels[index]

    def labels_of(self, indices) -> list[str]:
        """Return the labels of many vectors with one vectorised gather.

        Equivalent to ``[self.label(i) for i in indices]`` but served by a
        single fancy index into the label array — the feedback loops look up
        one result list's labels per query per iteration, which makes this
        a hot path of the batched pipeline.
        """
        if self._labels_array is None:
            raise ValidationError("this collection has no labels")
        indices = np.asarray(indices)
        if indices.size == 0:
            return []
        if indices.dtype.kind not in "iu":
            raise ValidationError("indices must be integers")
        indices = indices.astype(np.intp, copy=False)
        if indices.min() < 0 or indices.max() >= self.size:
            raise ValidationError(f"indices out of range [0, {self.size})")
        return self._labels_array[indices].tolist()

    def indices_with_label(self, label: str) -> np.ndarray:
        """Return the indices of every vector carrying ``label``."""
        if self._labels is None:
            raise ValidationError("this collection has no labels")
        return np.asarray(
            [index for index, value in enumerate(self._labels) if value == label], dtype=np.intp
        )

    def __len__(self) -> int:
        return self.size

    def __getstate__(self) -> dict:
        # The workspace is a pure function of the matrix: rebuild it on
        # demand instead of shipping corpus-sized arrays per pickle
        # (spawn-safety: collections must cross process boundaries cheaply).
        state = self.__dict__.copy()
        state["_workspace"] = None
        del state["_workspace_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._workspace_lock = threading.Lock()
        # Writability flags do not survive pickling; restore immutability.
        self._vectors.setflags(write=False)
        if self._labels_array is not None:
            self._labels_array.setflags(write=False)

    def validate_query_point(self, point) -> np.ndarray:
        """Validate a query point against the collection's dimensionality."""
        return as_float_vector(point, name="query point", dim=self.dimension)

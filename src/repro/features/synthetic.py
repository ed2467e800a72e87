"""Clustered synthetic corpora for the scan's byte-identity grids.

The IMSI-like image corpus (:mod:`repro.features.datasets`) models the
paper's images; the float32 candidate stage and the blocked scan are better
stressed by a plain clumpy point cloud.  Real feature spaces are clumpy, and
clumpiness is what stresses candidate selection (many near-ties inside a
cluster) in a way uniform noise never does.

:func:`build_clustered_corpus` generates such a corpus deterministically
from a seed: a Gaussian-mixture point cloud with Dirichlet-skewed cluster
sizes (a few big clusters, a long tail of small ones) and per-cluster
spreads, filled block by block so the generator itself never allocates more
than one block of scratch beyond the output matrix.  Everything is a pure
function of the arguments, so two processes build bit-identical corpora.

The fast-precision identity grid (``tests/test_fast_precision.py``) builds
its near-tie-heavy corpora here; no served path, experiment or benchmark
imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import ValidationError, check_dimension

#: Default feature dimensionality of the corpora (wide enough that the
#: pairwise products are BLAS-bound, like real descriptor spaces).
DEFAULT_DIMENSION = 64

#: Rows generated per fill step of :func:`build_clustered_corpus` — bounds
#: the generator's scratch memory independently of the corpus size.
GENERATOR_BLOCK_ROWS = 131_072


@dataclass(frozen=True)
class ClusteredCorpus:
    """A synthetic clustered point cloud with its generating structure.

    ``vectors`` is the ``(n, d)`` float64 corpus matrix; ``assignments``
    maps every row to its cluster and ``centers`` holds the cluster means —
    kept so benchmarks can build structure-aware query sets and tests can
    verify the clustering actually materialised.
    """

    vectors: np.ndarray
    assignments: np.ndarray
    centers: np.ndarray

    @property
    def n_vectors(self) -> int:
        """Number of corpus rows."""
        return int(self.vectors.shape[0])

    @property
    def dimension(self) -> int:
        """Feature dimensionality."""
        return int(self.vectors.shape[1])

    @property
    def n_clusters(self) -> int:
        """Number of mixture components."""
        return int(self.centers.shape[0])


def build_clustered_corpus(
    n_vectors: int,
    dimension: int = DEFAULT_DIMENSION,
    n_clusters: int = 32,
    *,
    cluster_std: float = 0.15,
    center_scale: float = 1.0,
    seed: int = 0,
) -> ClusteredCorpus:
    """Generate a seeded Gaussian-mixture corpus of ``n_vectors`` rows.

    Cluster weights are drawn from a Dirichlet distribution (concentration
    2), giving the skewed size profile of real collections; each cluster
    gets its own spread (uniformly 0.5–1.5 × ``cluster_std``) around a
    center drawn from ``N(0, center_scale²)``.  Rows are assigned to
    clusters independently and the matrix is filled in
    :data:`GENERATOR_BLOCK_ROWS`-row steps, so peak scratch memory is one
    block regardless of ``n_vectors`` — a million-vector corpus costs its
    own 8-byte cells plus one block of noise.

    The output is a pure function of the arguments (one
    ``numpy.random.default_rng(seed)`` stream consumed in a fixed order):
    identical calls produce bit-identical corpora.
    """
    n_vectors = check_dimension(n_vectors, "n_vectors")
    dimension = check_dimension(dimension, "dimension")
    n_clusters = min(check_dimension(n_clusters, "n_clusters"), n_vectors)
    if cluster_std < 0 or center_scale < 0:
        raise ValidationError("cluster_std and center_scale must be non-negative")
    rng = np.random.default_rng(seed)
    centers = center_scale * rng.normal(size=(n_clusters, dimension))
    spreads = cluster_std * rng.uniform(0.5, 1.5, size=n_clusters)
    weights = rng.dirichlet(np.full(n_clusters, 2.0))
    assignments = rng.choice(n_clusters, size=n_vectors, p=weights).astype(np.intp)
    vectors = np.empty((n_vectors, dimension), dtype=np.float64)
    for start in range(0, n_vectors, GENERATOR_BLOCK_ROWS):
        stop = min(start + GENERATOR_BLOCK_ROWS, n_vectors)
        block_assignments = assignments[start:stop]
        noise = rng.normal(size=(stop - start, dimension))
        vectors[start:stop] = (
            centers[block_assignments] + spreads[block_assignments, None] * noise
        )
    return ClusteredCorpus(vectors=vectors, assignments=assignments, centers=centers)


def sample_queries(
    corpus: ClusteredCorpus, n_queries: int, *, jitter: float = 0.05, seed: int = 1
) -> np.ndarray:
    """Draw a structure-aware query batch from a clustered corpus.

    Queries are jittered copies of randomly chosen corpus rows, so they land
    *inside* clusters — the regime with many near-tied neighbours, which is
    what exercises candidate widening and exact re-scoring.  Deterministic
    in ``(corpus seedings, n_queries, jitter, seed)``.
    """
    n_queries = check_dimension(n_queries, "n_queries")
    if jitter < 0:
        raise ValidationError("jitter must be non-negative")
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, corpus.n_vectors, size=n_queries)
    return corpus.vectors[rows] + jitter * rng.normal(size=(n_queries, corpus.dimension))

"""The four workloads and their seeded input generators.

Everything the server and the load generator consume is generated here from
``--seed``: the same seed gives the same arrays (``checksums`` proves it),
and the program under test only ever sees these generated inputs — the
server child loads them from an ``.npz`` file.

Clustered corpora and every op stream are numpy-only and seeded; the labelled
corpus is the paper's synthetic IMSI-like collection
(``build_imsi_like_dataset`` + ``drop_last_bin``, category labels), the same
for every seed, which is what gives the interactive workload a category
oracle to judge with.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from repro.features.datasets import build_imsi_like_dataset
from repro.features.normalization import drop_last_bin

DEFAULT_SEED = 2001

#: Every sixteenth op (by stream index) keeps its response for the oracle.
ORACLE_STRIDE = 16

#: Op kinds of the ``live_mixed`` stream.
SEARCH, INSERT, DELETE = 0, 1, 2

#: Rows per ``insert`` / ``delete`` op on ``live_mixed``.
WRITE_ROWS = 4


@dataclass(frozen=True)
class Workload:
    """One workload's shape; ``smoke()`` scales it down 100x for the test."""

    name: str
    why: str
    labelled: bool  # the paper's labelled corpus, else a clustered one
    rows: int  # clustered corpus rows (ignored when labelled)
    dim: int  # clustered corpus dimension (ignored when labelled)
    scale: float  # labelled corpus scale (1.0 = 3,737 x 31)
    k: int
    batch_rows: int  # query rows per search request
    stream_ops: int  # ops generated; the stream wraps if a run outlasts it
    warmup_ops: int  # unmeasured ops that precede the measured phase
    trace_ops: int  # ops the in-process traced replay covers
    server_config: dict  # ServerConfig overrides of the server child
    live: bool = False  # serve a LiveCollection
    cold_sessions: int = 0  # interactive: distinct images trained on an empty tree

    @property
    def oracle_stride(self) -> int:
        """Stream indices between sampled responses (denser on a ``--smoke`` stream)."""
        return min(ORACLE_STRIDE, max(1, self.stream_ops // 8))

    def smoke(self) -> "Workload":
        """The 1/100 variant behind ``--smoke`` (fixed op counts, tiny corpora)."""
        config = dict(self.server_config)
        if "autocompact_delta_rows" in config:
            config["autocompact_delta_rows"] = 8
        return replace(
            self,
            rows=max(1000, self.rows // 25),
            scale=0.1,
            stream_ops=max(12, self.stream_ops // 100),
            warmup_ops=max(2, self.warmup_ops // 100),
            trace_ops=max(8, self.trace_ops // 50),
            cold_sessions=max(0, self.cold_sessions // 32),
            server_config=config,
        )


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="serve_small",
            why="Serving-dominated: single-row search on 3,737x31, the engine is a "
            "quarter of a request; codec, framing, handler thread and coalescer are the rest.",
            labelled=True, rows=0, dim=0, scale=1.0, k=20, batch_rows=1,
            stream_ops=40000, warmup_ops=2000, trace_ops=2000, server_config={},
        ),
        Workload(
            name="serve_large",
            why="Kernel-dominated: 16-row search_batch on 200,000x64 (102 MB, read from DRAM), "
            "over 95% in pairwise distances and k-selection; bypasses every serving optimisation.",
            labelled=False, rows=200000, dim=64, scale=0.0, k=10, batch_rows=16,
            stream_ops=600, warmup_ops=16, trace_ops=50, server_config={},
        ),
        Workload(
            name="interactive_bypass",
            why="The paper's workload: Simplex-Tree prediction, interactive feedback session, "
            "tree training; work sits in core, bypass registry, sessions and feedback engine.",
            labelled=True, rows=0, dim=0, scale=1.0, k=20, batch_rows=1,
            stream_ops=1536, warmup_ops=0, trace_ops=128, server_config={"bypass": True},
            cold_sessions=256,
        ),
        Workload(
            name="live_mixed",
            why="Same scan layer used differently: 90% reads over base + delta segments + "
            "tombstones beside 5% inserts, 5% deletes and background RCU compaction.",
            labelled=False, rows=8000, dim=64, scale=0.0, k=10, batch_rows=1,
            stream_ops=16000, warmup_ops=800, trace_ops=1000,
            server_config={"autocompact_delta_rows": 96}, live=True,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Every generated array of one (workload, seed) pair."""

    corpus: np.ndarray
    labels: "np.ndarray | None"  # unicode category per corpus row
    queries: np.ndarray  # (stream_ops * batch_rows, dim) search points
    kinds: np.ndarray  # live_mixed: op kind per stream index (else all SEARCH)
    write_rows: np.ndarray  # live_mixed: WRITE_ROWS fresh rows per non-search op
    write_slot: np.ndarray  # live_mixed: stream index -> slot in write_rows
    cold: np.ndarray  # interactive: corpus rows of the cold sessions
    warm: np.ndarray  # interactive: corpus rows of the warm session stream

    def arrays(self) -> dict:
        """Name -> array for every generated array (``None`` ones left out)."""
        return {
            name: value for name, value in vars(self).items() if value is not None
        }

    def checksums(self) -> dict:
        """sha256 of dtype, shape and bytes of every generated array."""
        digests = {}
        for name, array in self.arrays().items():
            digest = hashlib.sha256(f"{array.dtype.str}{array.shape}".encode())
            digest.update(np.ascontiguousarray(array).tobytes())
            digests[name] = digest.hexdigest()
        return digests


def _clustered(rng: np.random.Generator, rows: int, dim: int) -> "tuple[np.ndarray, np.ndarray]":
    """A corpus of 64 Gaussian clusters, and the centres it was drawn from."""
    centres = rng.standard_normal((64, dim))
    corpus = centres[rng.integers(0, 64, rows)] + 0.15 * rng.standard_normal((rows, dim))
    return corpus, centres


def generate(workload: Workload, seed: int) -> Inputs:
    """Generate one workload's inputs; a pure function of its arguments."""
    rng = np.random.default_rng([seed, sum(workload.name.encode())])
    n_queries = workload.stream_ops * workload.batch_rows
    empty = np.empty(0, dtype=np.intp)
    kinds = np.zeros(workload.stream_ops, dtype=np.uint8)
    write_rows = np.empty((0, 0))
    write_slot = empty
    cold = warm = empty
    if workload.labelled:
        # The labelled corpus is the paper's, the same for every seed; the
        # seed picks the queries and the warm stream.
        dataset = build_imsi_like_dataset(scale=workload.scale)
        corpus = drop_last_bin(dataset.features)
        labels = np.array([record.category for record in dataset.records])
        jitter = 1e-3
        if workload.cold_sessions:
            pool = np.concatenate(
                [dataset.indices_of_category(name) for name in dataset.evaluation_categories]
            )
            # Which images train the empty tree fixes the tree's geometry, and
            # that alone moves a session's cost 1.6x between seeds: the cold
            # set is part of the workload, the seed orders the warm stream.
            picked = np.random.default_rng(DEFAULT_SEED).permutation(pool)
            cold = picked[: workload.cold_sessions]
            n_fresh = workload.stream_ops // 2
            fresh = rng.permutation(picked[workload.cold_sessions :])[:n_fresh]
            repeats = rng.choice(cold, workload.stream_ops - fresh.shape[0])
            warm = rng.permutation(np.concatenate([repeats, fresh]))
    else:
        corpus, centres = _clustered(rng, workload.rows, workload.dim)
        labels = None
        jitter = 0.05
        if workload.live:
            draws = rng.random(workload.stream_ops)
            kinds = np.where(draws < 0.90, SEARCH, np.where(draws < 0.95, INSERT, DELETE))
            kinds = kinds.astype(np.uint8)
            writes = kinds != SEARCH
            write_slot = np.cumsum(writes) - 1
            n_rows = int(writes.sum()) * WRITE_ROWS
            write_rows = centres[rng.integers(0, 64, n_rows)] + 0.15 * rng.standard_normal(
                (n_rows, workload.dim)
            )
    queries = corpus[rng.integers(0, corpus.shape[0], n_queries)]
    queries = queries + jitter * rng.standard_normal(queries.shape)
    return Inputs(corpus, labels, queries, kinds, write_rows, write_slot, cold, warm)

"""Reproduction of *FeedbackBypass: A New Approach to Interactive Similarity
Query Processing* (Bartolini, Ciaccia, Waas — VLDB 2001).

The package is organised as the paper's system plus every substrate it
depends on:

* :mod:`repro.core` — FeedbackBypass and the Simplex Tree (the contribution),
* :mod:`repro.geometry` — simplices, barycentric coordinates, triangulation,
* :mod:`repro.wavelets` — Haar / lifting-scheme wavelets,
* :mod:`repro.distances` — parameterised distance functions,
* :mod:`repro.features` — the synthetic IMSI-like corpus and HSV histograms,
* :mod:`repro.database` — k-NN query processing (scan, VP-tree, M-tree),
* :mod:`repro.feedback` — relevance-feedback engines and the feedback loop,
* :mod:`repro.evaluation` — metrics, the simulated user and the experiments
  reproducing the paper's figures,
* :mod:`repro.serving` — the coalescing network serving layer: many client
  connections, one shared engine, batched dispatches.

Architecture: the batch-first query pipeline
--------------------------------------------

Every runtime layer exposes a batched form alongside its single-query form.
Through the feedback layer the two are contractually equivalent — batching
changes throughput, never results; the evaluation layer's session batching
additionally models *simultaneous arrival* (see below):

* **distances** — :class:`~repro.distances.base.DistanceFunction` computes
  both ``distances_to(query, points)`` (1×N) and ``pairwise(queries,
  points)`` ((Q, N) matrix form, vectorised per family).
* **database** — every k-NN engine implements the
  :class:`~repro.database.index.KNNIndex` protocol: ``search`` /
  ``search_batch`` / ``supports(distance)``, with ties on equal distance
  always broken by ascending collection index so any two conforming engines
  return byte-identical :class:`~repro.database.query.ResultSet`\\ s.  The
  :class:`~repro.database.engine.RetrievalEngine` dispatches on ``supports``
  capability (counting ``index_hits`` / ``scan_fallbacks`` in ``stats()``)
  and serves whole batches through ``run_batch``.
* **core** — :meth:`SimplexTree.predict_batch` walks many points with
  shared traversal bookkeeping; :class:`FeedbackBypass` layers
  ``mopt_batch`` / ``insert_batch`` on top with journaling intact.
* **feedback** — :class:`~repro.feedback.engine.FeedbackEngine` computes
  scores and reweighting over the full result set in matrix form, and the
  frontier scheduler (:class:`~repro.feedback.scheduler.LoopScheduler`)
  batches the feedback *loop* itself: a
  :class:`~repro.feedback.scheduler.FeedbackFrontier` of in-flight queries
  advances iteration *i* of every active loop with one batched search,
  byte-identical to the sequential
  :meth:`~repro.feedback.engine.FeedbackEngine.run_loop`.
* **evaluation** — :class:`~repro.evaluation.session.InteractiveSession`
  runs the Default and Bypass first-round arms of a workload through
  ``run_batch`` and its feedback phase on the frontier scheduler (one
  batched dispatch per round instead of one search per query per round,
  counted exactly by the engine's ``stats()``).  Unlike the layers above,
  session batching is *semantically* a modelling choice: every query in a
  batch is predicted from the tree state at batch start (a group of
  simultaneous users, none seeing the others' feedback), so outcomes can
  differ from running the same queries one at a time.
* **serving** — the network layer manufactures the batches the layers
  below consume: a :class:`~repro.serving.server.RetrievalServer` fronts
  one shared engine, concurrent connections' queries are admitted into a
  shared micro-batch window
  (:class:`~repro.serving.coalescer.RequestCoalescer`: grouped by ``k``
  and parameter shape, dispatched as one ``search_batch`` /
  ``search_batch_with_parameters`` call, split back to the callers) and
  concurrent relevance-feedback loops share one
  :class:`~repro.feedback.scheduler.FeedbackFrontier`
  (:class:`~repro.serving.coalescer.FrontierCoalescer`, continuous
  admission via ``FeedbackFrontier.admit``) — so N interactive users cost
  ~one frontier dispatch per round instead of N.  Coalescing decides who
  *shares* a dispatch, never what anyone gets back: served answers are
  byte-identical to calling the engine directly.

Performance guide: picking an execution backend
------------------------------------------------

The sharded serving layer (:class:`~repro.database.sharding.ShardedEngine`)
is the one place work is spread over workers — a frontier scheduler or a
server running on it gets parallelism from its shard fan-out.  It fans
per-shard work out over one of two backends; both return byte-identical
results, so the choice is purely a deployment knob:

* ``backend="thread"`` (default) — zero setup cost, shares the corpus in
  place.  NumPy releases the GIL inside the distance kernels, so threads
  scale well for moderate worker counts — until the Python-side dispatch
  and merge (which hold the GIL) become the bottleneck.  Prefer it for
  small corpora, short-lived engines, and anything interactive.
* ``backend="process"`` — hosts each shard's vectors in
  :mod:`multiprocessing.shared_memory`
  (:class:`~repro.database.sharding.SharedCorpus`): worker processes attach
  the same physical pages once (N workers cost one corpus in memory, not
  N), and per-query traffic is small pickles of query batches and top-k
  lists.  The scan then runs on independent interpreters, so scan-heavy
  shards on big corpora keep scaling where threads flatten out.  Costs:
  process spawn plus one corpus copy at engine construction (amortised over
  a serving lifetime), pickle/pipe overhead per batch (amortised over batch
  size), and picklability requirements (``index_factory`` must be a
  module-level function, not a lambda).

Caveats worth knowing: **cores bound everything** — on a 1-core box
neither backend can beat the serial scan (``python3 -m bench --trace 1``
reports the serial, thread and process batch times side by side); **pin
BLAS threads** to one per worker when benchmarking or deploying
multi-worker scans (``OMP_NUM_THREADS=1`` etc., see the repository's root
``conftest.py``), otherwise N workers × M BLAS threads thrash the same
cores; and **close what you open** — process-backend engines hold
worker processes and a shared-memory segment, so use the
context manager or ``close()`` (a ``weakref`` finalizer backstops leaked
segments, but deterministic teardown is the contract).  Distance kernels
additionally read their corpus-side terms from the per-collection
:class:`~repro.database.collection.CorpusWorkspace`, so the per-batch scan
cost is query-sized work plus one BLAS product — nothing corpus-sized is
recomputed per batch on any backend.

One level up, the **serving layer** turns those knobs into a deployment:
front any engine (including a process-backend
:class:`~repro.database.sharding.ShardedEngine`) with a
:class:`~repro.serving.server.RetrievalServer` and point N client
connections at it.  Coalescing is what makes concurrency *cheaper* instead
of merely concurrent — per-connection RPC dispatch pays one scan per
request, the shared micro-batch window pays one matrix dispatch per
``max_batch`` rows — so throughput under concurrent load improves even on
a single core (batching economics, not parallelism; the coalescer's
``stats()`` counts requests, rows and dispatches).  The knobs to know:
``max_batch`` (window row cap; ``1`` disables coalescing), ``max_wait``
(``0.0`` = continuous batching with no deliberate delay — sharing comes
from backpressure; raise it only to grow windows under sparse arrivals),
and ``own_engine=True`` when the server should tear the engine down
— worker processes, shared-memory segments and all — on ``close()``.  The
wire speaks one codec behind a versioned handshake: a length-prefixed
binary format (float64 bits survive exactly; decoding never executes code)
— nothing on the wire is ever unpickled (see ``docs/serving.md``).

At connection scale, swap the front end:
:class:`~repro.serving.async_server.AsyncRetrievalServer` serves the same
wire contract from one asyncio event loop — tens of thousands of mostly
idle connections cost an epoll registration each instead of a thread —
while dispatch still runs on the shared coalescers (the serving stress
suite parks hundreds of idle connections beside hot traffic).  Client-side,
:class:`~repro.serving.pool.PooledServingClient` bounds connections,
budgets each request's deadline, retries idempotent ops on transport
failure with exponential backoff, and health-checks pooled sockets before
reuse.

When the corpus itself must change under that traffic, swap the
collection: a :class:`~repro.database.segments.LiveCollection` composes an
immutable indexed base segment with append-only delta segments and
tombstones, so inserts and deletes cost O(delta) instead of a rebuild,
every query remains byte-identical to a frozen rebuild at that snapshot
(stable ids across compactions keep the feedback and bypass layers
working unchanged), and a background
:class:`~repro.database.segments.Compactor` folds deltas into a fresh
base off the hot path under an atomic epoch swap — queries in flight
never block (``docs/mutability.md``).  The serving layer exposes it as
``insert`` / ``delete`` / ``compact`` / ``corpus_stats`` ops on both front
ends.

Quickstart::

    from repro import build_imsi_like_dataset, InteractiveSession, SessionConfig

    dataset = build_imsi_like_dataset(scale=0.1, seed=7)
    session = InteractiveSession.for_dataset(dataset, SessionConfig(k=20))
    outcome = session.run_query(query_index=0)
    print(outcome.bypass_precision, outcome.default_precision)

    # Batched: first rounds of a whole query stream in matrix form.
    outcomes = session.run_batch([1, 2, 3, 4])

    # Network serving with request coalescing: one shared engine, many
    # connections, concurrent queries merged into batched dispatches —
    # answers byte-identical to calling the engine directly.
    from repro import (RetrievalEngine, RetrievalServer, ServerConfig,
                       ServingClient, SimulatedUser)

    engine = RetrievalEngine(session.collection)
    with RetrievalServer(engine, ServerConfig(max_batch=32)) as server:
        host, port = server.address
        with ServingClient(host, port) as client:
            results = client.search(session.collection.vectors[0], 20)
            loop = client.run_feedback_loop(
                session.collection.vectors[0], 20,
                SimulatedUser(session.collection).judge_for_query(0))
        print(server.stats()["coalescer"]["rows_per_dispatch"])

    # The shared served bypass: every connection's retiring loops train
    # one multi-tenant Simplex Tree behind the server, so a second client
    # starts its loop from the first one's learning and converges faster.
    user = SimulatedUser(session.collection)
    with RetrievalServer(engine, ServerConfig(bypass=True)) as server:
        host, port = server.address
        with ServingClient(host, port) as first:
            cold = first.run_feedback_loop(
                session.collection.vectors[2], 20, user.judge_for_query(2))
        with ServingClient(host, port) as second:
            prediction = second.bypass_mopt(session.collection.vectors[2])
            warm = second.run_feedback_loop(
                session.collection.vectors[2], 20, user.judge_for_query(2),
                initial_delta=prediction.delta,
                initial_weights=prediction.weights)
        assert warm.iterations <= cold.iterations

    # Live mutable corpus: a segment-composed collection takes inserts
    # and deletes in O(delta) under serving traffic — every answer
    # byte-identical to a frozen rebuild at that instant — and compaction
    # folds the deltas into a fresh base off the hot path; stable ids
    # survive the fold.
    from repro import LiveCollection

    live = LiveCollection(session.collection.vectors)
    with RetrievalServer(RetrievalEngine(live), ServerConfig()) as server:
        host, port = server.address
        with ServingClient(host, port) as client:
            ids = client.insert(session.collection.vectors[:4] + 0.01)
            before = client.search(session.collection.vectors[0], 20)
            client.compact()
            after = client.search(session.collection.vectors[0], 20)
            assert after.indices().tolist() == before.indices().tolist()
            client.delete(ids[:2])
            print(client.corpus_stats()["size"], "vectors live")

    # Anytime retrieval under a budget: cap the work (metric evaluations)
    # and/or wall-clock of any search and get the best-so-far top-k plus
    # a coverage report.  Absent, unlimited or merely *sufficient*
    # budgets are byte-identical to the exact path.
    from repro import Budget

    with RetrievalServer(engine, ServerConfig()) as server:
        host, port = server.address
        with ServingClient(host, port) as client:
            result, coverage = client.search(
                session.collection.vectors[0], 20,
                budget=Budget(max_rows=10_000))
            print(coverage.fraction, coverage.complete)
"""

from repro.core import (
    FeedbackBypass,
    OptimalQueryParameters,
    SimplexTree,
    bypass_for_histograms,
    bypass_for_points,
    bypass_for_unit_cube,
    load_simplex_tree,
    save_simplex_tree,
)
from repro.database import (
    Budget,
    Compactor,
    CorpusWorkspace,
    Coverage,
    FeatureCollection,
    KNNIndex,
    LinearScanIndex,
    LiveCollection,
    MTreeIndex,
    Query,
    ResultSet,
    RetrievalEngine,
    SharedCorpus,
    SharedCorpusHandle,
    ShardedCollection,
    ShardedEngine,
    VPTreeIndex,
    WorkerPool,
)
from repro.distances import (
    HierarchicalDistance,
    MahalanobisDistance,
    MinkowskiDistance,
    WeightedEuclideanDistance,
)
from repro.features import ImageDataset, build_imsi_like_dataset
from repro.feedback import FeedbackEngine, LoopScheduler, ReweightingRule
from repro.evaluation import (
    InteractiveSession,
    SessionConfig,
    SimulatedUser,
    precision,
    recall,
)
from repro.serving import (
    AsyncRetrievalServer,
    BypassRegistry,
    PooledServingClient,
    RetrievalServer,
    ServerConfig,
    ServingClient,
)

__version__ = "0.1.0"

__all__ = [
    "FeedbackBypass",
    "OptimalQueryParameters",
    "SimplexTree",
    "bypass_for_histograms",
    "bypass_for_points",
    "bypass_for_unit_cube",
    "load_simplex_tree",
    "save_simplex_tree",
    "Budget",
    "Compactor",
    "CorpusWorkspace",
    "Coverage",
    "FeatureCollection",
    "KNNIndex",
    "LinearScanIndex",
    "LiveCollection",
    "MTreeIndex",
    "Query",
    "ResultSet",
    "RetrievalEngine",
    "SharedCorpus",
    "SharedCorpusHandle",
    "ShardedCollection",
    "ShardedEngine",
    "VPTreeIndex",
    "WorkerPool",
    "HierarchicalDistance",
    "MahalanobisDistance",
    "MinkowskiDistance",
    "WeightedEuclideanDistance",
    "ImageDataset",
    "build_imsi_like_dataset",
    "FeedbackEngine",
    "LoopScheduler",
    "ReweightingRule",
    "InteractiveSession",
    "SessionConfig",
    "SimulatedUser",
    "precision",
    "recall",
    "AsyncRetrievalServer",
    "BypassRegistry",
    "PooledServingClient",
    "RetrievalServer",
    "ServerConfig",
    "ServingClient",
    "__version__",
]

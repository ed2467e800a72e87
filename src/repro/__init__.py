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

The root imports nothing: each name is imported from the module that
defines it, so a process loads only the layers it runs (the served path
never loads the experiments, the corpus generator or the shard layer).

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
  ``search_batch``, with ties on equal distance always broken by ascending
  collection index so any two conforming engines return byte-identical
  :class:`~repro.database.query.ResultSet`\\ s.  The
  :class:`~repro.database.engine.RetrievalEngine` answers every query with
  the linear scan (the metric trees serve one fixed metric, never a
  feedback-adjusted one) and serves whole batches through
  ``search_batch``.
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
  ``search_batch_with_parameters`` call, split back to the callers).
  Interactive feedback sessions ride the same windows — each round's
  search is one coalesced submission — so N users judging at once cost
  fewer dispatches than N searches per round.  Coalescing decides who
  *shares* a dispatch, never what anyone gets back: served answers are
  byte-identical to calling the engine directly.

Performance guide: the plain scan first
---------------------------------------

Start from a plain :class:`~repro.database.engine.RetrievalEngine`: its
default scan (float32 candidates, one exact float64 re-score) is the
fastest path measured on every corpus the benchmarks run.  Distance
kernels read their corpus-side terms from the per-collection
:class:`~repro.database.collection.CorpusWorkspace`, so the per-batch scan
cost is query-sized work plus one BLAS product per block — nothing
corpus-sized is recomputed per batch.

:class:`~repro.database.sharding.ShardedEngine` splits one batch across
shards, on threads (``backend="thread"``, the default) or on worker
processes attached to one shared-memory corpus (``backend="process"``).
Both return byte-identical results, but neither has been measured beating
the unsharded scan beyond run-to-run noise: on two cores the scan of a
200,000 × 64 corpus is bound by memory bandwidth, and the process backend
adds about half a second of setup (``python3 -m bench --trace 1`` reports
the serial, thread and process batch times side by side).  What does
scale with cores is running *different* requests at once: the serving
layer's coalescer gives each group one dispatch slot per core (see
``docs/performance.md``).

Caveats worth knowing: **pin BLAS threads** to one per worker when
benchmarking or deploying multi-worker scans (``OMP_NUM_THREADS=1`` etc.,
see the repository's root ``conftest.py``), otherwise N workers × M BLAS
threads thrash the same cores; and **close what you open** —
process-backend engines hold worker processes and a shared-memory segment,
so use the context manager or ``close()`` (a ``weakref`` finalizer
backstops leaked segments, but deterministic teardown is the contract).

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
``max_batch`` (window row cap; ``1`` disables coalescing — there is no
deliberate delay, sharing comes from backpressure once every dispatch slot
is busy) and ``own_engine=True`` when the server should tear the engine down
— worker processes, shared-memory segments and all — on ``close()``.  The
wire speaks one codec behind a versioned handshake: a length-prefixed
binary format (float64 bits survive exactly; decoding never executes code)
— nothing on the wire is ever unpickled (see ``docs/serving.md``).

At connection scale, swap the front end:
:class:`~repro.serving.async_server.AsyncRetrievalServer` serves the same
wire contract from one asyncio event loop — tens of thousands of mostly
idle connections cost an epoll registration each instead of a thread —
while dispatch still runs on the shared coalescer (the serving stress
suite parks hundreds of idle connections beside hot traffic).  Client-side,
:class:`~repro.serving.pool.PooledServingClient` bounds connections,
budgets each request's deadline, retries idempotent ops on transport
failure with exponential backoff, and health-checks pooled sockets before
reuse.

When the corpus itself must change under that traffic, swap the
collection: a :class:`~repro.database.segments.LiveCollection` composes an
immutable base segment with append-only delta segments and
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

    from repro.evaluation.session import InteractiveSession, SessionConfig
    from repro.features.datasets import build_imsi_like_dataset

    dataset = build_imsi_like_dataset(scale=0.1, seed=7)
    session = InteractiveSession.for_dataset(dataset, SessionConfig(k=20))
    outcome = session.run_query(query_index=0)
    print(outcome.bypass_precision, outcome.default_precision)

    # Batched: first rounds of a whole query stream in matrix form.
    outcomes = session.run_batch([1, 2, 3, 4])

    # Network serving with request coalescing: one shared engine, many
    # connections, concurrent queries merged into batched dispatches —
    # answers byte-identical to calling the engine directly.
    from repro.database.engine import RetrievalEngine
    from repro.evaluation.simulated_user import SimulatedUser
    from repro.serving.client import ServingClient
    from repro.serving.server import RetrievalServer, ServerConfig

    engine = RetrievalEngine(session.collection)
    with RetrievalServer(engine, ServerConfig(max_batch=32)) as server:
        host, port = server.address
        with ServingClient(host, port) as client:
            results = client.search(session.collection.vectors[0], 20)
            # An interactive session: the judge stays in this process,
            # only each round's judgments cross the wire.
            loop = client.run_feedback_session(
                session.collection.vectors[0], 20,
                SimulatedUser(session.collection).judge_for_query(0))
        print(server.stats()["coalescer"]["rows_per_dispatch"])

    # The shared served bypass, the paper's loop behind a server: predict
    # the starting parameters from one multi-tenant Simplex Tree, run the
    # session from them, store the converged ones — so a second client
    # starts from the first one's learning and converges faster.
    user = SimulatedUser(session.collection)
    query = session.collection.vectors[2]
    with RetrievalServer(engine, ServerConfig(bypass=True)) as server:
        host, port = server.address
        loops = []
        for _ in range(2):
            with ServingClient(host, port) as client:
                prediction = client.bypass_mopt(query)
                loop = client.run_feedback_session(
                    query, 20, user.judge_for_query(2),
                    initial_delta=prediction.delta,
                    initial_weights=prediction.weights)
                stored = loop.parameters_to_store(query)
                if stored is not None:
                    client.bypass_insert(query, stored)
                loops.append(loop)
        assert loops[1].iterations <= loops[0].iterations

    # Live mutable corpus: a segment-composed collection takes inserts
    # and deletes in O(delta) under serving traffic — every answer
    # byte-identical to a frozen rebuild at that instant — and compaction
    # folds the deltas into a fresh base off the hot path; stable ids
    # survive the fold.
    from repro.database.segments import LiveCollection

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
    from repro.database.budget import Budget

    with RetrievalServer(engine, ServerConfig()) as server:
        host, port = server.address
        with ServingClient(host, port) as client:
            result, coverage = client.search(
                session.collection.vectors[0], 20,
                budget=Budget(max_rows=10_000))
            print(coverage.fraction, coverage.complete)
"""

__version__ = "0.1.0"

__all__: "list[str]" = []

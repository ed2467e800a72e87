"""Quickstart: FeedbackBypass on a small synthetic image corpus.

Builds a scaled-down IMSI-like dataset, runs a short stream of interactive
queries through an :class:`~repro.evaluation.session.InteractiveSession`, and
prints how the three strategies of the paper compare:

* Default        — first-round results with default query parameters,
* FeedbackBypass — first-round results with parameters predicted by the
                   Simplex Tree trained on the previous queries,
* AlreadySeen    — first-round results with the parameters the feedback loop
                   converges to for this very query (the upper bound).

It then walks the scaling ladder on the same corpus — batched first rounds
and frontier-scheduled feedback, a sharded multi-worker engine on threads
and on the shared-memory process backend, and finally the coalescing
network serving layer with an interactive session over the shared bypass —
with every stage byte-identical to the one before.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.evaluation import InteractiveSession, SessionConfig
from repro.evaluation.metrics import precision_gain
from repro.features.datasets import build_imsi_like_dataset


def main(scale: float = 0.1, *, n_queries: int = 150, batch_size: int = 16, k: int = 20) -> None:
    # A ~10% scale corpus keeps the example under a few seconds (the
    # parameters exist so the docs smoke test can run a miniature pass).
    dataset = build_imsi_like_dataset(scale=scale, seed=42)
    print(f"Corpus: {dataset.n_images} images, {dataset.n_bins}-bin HSV histograms")
    print(f"Evaluation categories: {', '.join(dataset.evaluation_categories)}")

    config = SessionConfig(k=k, epsilon=0.05)
    session = InteractiveSession.for_dataset(dataset, config)

    rng = np.random.default_rng(7)
    query_indices = dataset.sample_query_indices(n_queries, rng)
    # Queries arrive in batches of 16 simultaneous users.  Each batch's
    # Default and Bypass first rounds run through the engine's matrix-form
    # batch path, and the relevance-feedback loops of the whole batch then
    # advance together on the frontier scheduler (LoopScheduler): iteration
    # i of every still-active query is one batched search instead of one
    # scan per query, with results byte-identical to the sequential loops.
    outcomes = session.run_stream(query_indices, batch_size=batch_size)

    # Compare the first and the second half of the stream: the tree keeps
    # learning, so predictions for the second half are better.
    halves = {"first half": outcomes[: len(outcomes) // 2], "second half": outcomes[len(outcomes) // 2 :]}
    print()
    print(f"{'block':<12}{'Pr(Default)':>14}{'Pr(Bypass)':>14}{'Pr(Seen)':>12}{'Gain(Bypass)%':>16}")
    for name, block in halves.items():
        default = float(np.mean([o.default_precision for o in block]))
        bypass = float(np.mean([o.bypass_precision for o in block]))
        seen = float(np.mean([o.already_seen_precision for o in block]))
        gain = precision_gain(bypass, default)
        print(f"{name:<12}{default:>14.3f}{bypass:>14.3f}{seen:>12.3f}{gain:>16.1f}")

    print()
    stats = session.bypass.statistics()
    print(
        "Simplex Tree: "
        f"{int(stats['n_stored_queries'])} stored queries, "
        f"{int(stats['n_simplices'])} simplices, depth {int(stats['depth'])}, "
        f"avg traversal {stats['average_traversal_length']:.2f}"
    )
    engine_stats = session.retrieval_engine.stats()
    print(
        "Retrieval engine: "
        f"{engine_stats['n_searches']} searches in {engine_stats['n_batches']} batches, "
        f"{engine_stats['index_hits']} index hits / {engine_stats['scan_fallbacks']} scan fallbacks"
    )
    # Saved-cycles accounting straight off the engine: how many feedback
    # iterations the loops cost and how many batched frontier dispatches
    # served them.
    print(
        "Feedback loops: "
        f"{engine_stats['feedback_iterations']} iterations served by "
        f"{engine_stats['frontier_batches']} frontier batches"
    )

    # Sharded multi-worker serving: the collection is partitioned into 4
    # contiguous index-range shards served by per-shard engines, and every
    # search fans out over 2 worker threads.  This shard fan-out is the one
    # place work is spread over workers — a frontier scheduler or a server
    # running on a ShardedEngine inherits it.  Per-shard top-k lists merge
    # with the same (distance, ascending index) tie-break, so every answer
    # is byte-identical to the unsharded engine.
    from repro.database.engine import RetrievalEngine
    from repro.database.sharding import ShardedEngine
    from repro.serving.client import ServingClient
    from repro.serving.server import RetrievalServer, ServerConfig

    engine = RetrievalEngine(session.collection)
    queries = session.collection.vectors[query_indices[:batch_size]]
    expected = engine.search_batch(queries, config.k)
    with ShardedEngine(session.collection, 4, n_workers=2) as sharded:
        identical = sharded.search_batch(queries, config.k) == expected
        sharded_stats = sharded.stats()
    print()
    print(
        f"Sharded engine ({sharded_stats['shard_count']} shards, "
        f"{sharded_stats['n_workers']} worker threads): "
        f"search_batch identical to unsharded = {identical}; "
        f"{sharded_stats['scan_fallbacks']} per-shard dispatch decisions for "
        f"{sharded_stats['n_searches']} merged searches"
    )

    # Process backend: the same deployment knob one level up.  The corpus is
    # hosted once in multiprocessing.shared_memory, the per-shard engines
    # live in 2 long-lived worker processes that attach it zero-copy, and
    # only query batches / top-k lists cross the process boundary — the scan
    # runs on independent interpreters, past the GIL.  Still byte-identical;
    # the context manager tears the workers and the segment down.
    with ShardedEngine(session.collection, 4, n_workers=2, backend="process") as sharded:
        identical = sharded.search_batch(queries, config.k) == expected
        print(
            f"Process-backend engine ({sharded.n_shards} shards, "
            f"{sharded.n_workers} worker processes): search_batch identical = {identical}"
        )

    # Network serving with request coalescing: the same engine stack behind
    # a TCP server.  Concurrent connections' queries merge into shared
    # batched dispatches (one search_batch call instead of one scan per
    # request), interactive sessions' rounds included — with every served
    # answer byte-identical to calling the engine directly.  The session
    # below is the paper's loop behind the server: predict the starting
    # parameters from the shared Simplex Tree, let the (client-side) judge
    # drive the rounds, store the converged parameters.
    # See examples/serving_session.py for the full client surface.
    with RetrievalServer(engine, ServerConfig(max_batch=16, bypass=True)) as server:
        host, port = server.address
        with ServingClient(host, port) as client:
            query_index = int(query_indices[0])
            query = session.collection.vectors[query_index]
            served = client.search(query, config.k)
            local = engine.search(query, config.k)
            prediction = client.bypass_mopt(query)
            served_loop = client.run_feedback_session(
                query,
                config.k,
                session.user.judge_for_query(query_index),
                initial_delta=prediction.delta,
                initial_weights=prediction.weights,
            )
            stored = served_loop.parameters_to_store(query)
            if stored is not None:
                client.bypass_insert(query, stored)
        window = server.stats()["coalescer"]
        print()
        print(
            f"Served over {host}:{port}: search identical = {served == local}, "
            f"session stopped as {served_loop.reason!r} "
            f"(outcome stored in the shared tree = {stored is not None}); "
            f"{window['requests']} requests -> {window['dispatches']} engine dispatches"
        )

    # A live corpus under serving traffic: the same collection wrapped in a
    # LiveCollection (one immutable base segment plus append-only deltas and
    # tombstones) accepts inserts and deletes over the wire in O(delta),
    # every query merges exact across the segments — byte-identical to a
    # frozen rebuild at that instant — and compaction folds the deltas into
    # a fresh base off the hot path.  See docs/mutability.md.
    from repro.database.segments import LiveCollection

    live = LiveCollection(
        session.collection.vectors, labels=list(session.collection.labels)
    )
    live_engine = RetrievalEngine(live)
    with RetrievalServer(live_engine, ServerConfig(max_batch=16)) as server:
        host, port = server.address
        with ServingClient(host, port) as client:
            probe = session.collection.vectors[int(query_indices[0])] + 0.01
            inserted = client.insert(probe[None, :], labels=["fresh"])
            hit = client.search(probe, 1)
            folded = client.compact()
            still = client.search(probe, 1)  # stable ids survive the fold
            client.delete([int(inserted[0])])
            corpus = client.corpus_stats()
        print()
        print(
            f"Live corpus: inserted id {int(inserted[0])} found itself = "
            f"{int(hit.indices()[0]) == int(inserted[0])}, survived compaction = "
            f"{hit.indices()[0] == still.indices()[0]} "
            f"(epoch {folded['epoch']}); after delete: {corpus['size']} alive of "
            f"{corpus['total_inserted']} inserted, {corpus['tombstones']} tombstones"
        )


if __name__ == "__main__":
    main()

"""Serving walk-through: many clients, one shared engine, coalesced batches.

Starts a :class:`~repro.serving.server.RetrievalServer` over a sharded
engine, with the shared served bypass on, then demonstrates the full
client surface:

* plain and parameterised k-NN searches over the wire,
* the paper's feedback cycle behind the server: predict the starting
  parameters from the shared Simplex Tree (``bypass_mopt``), run an
  interactive session where the judge stays client-side and only
  judgments cross the wire, store the converged parameters
  (``bypass_insert``) — then the same session again, shortened by the
  stored prediction,
* the same session driven round by round through the raw session ops,
* several concurrent clients whose single-query streams coalesce into
  shared batched dispatches — with the server's counters showing how much
  sharing happened, and every answer checked byte-identical to a local
  engine (the serving contract).

Run with::

    python examples/serving_session.py
"""

from __future__ import annotations

import threading

import numpy as np

from repro.database.collection import FeatureCollection
from repro.database.engine import RetrievalEngine
from repro.database.sharding import ShardedEngine
from repro.evaluation.simulated_user import SimulatedUser
from repro.features.datasets import build_imsi_like_dataset
from repro.features.normalization import drop_last_bin
from repro.feedback.engine import FeedbackEngine
from repro.serving import RetrievalServer, ServerConfig, ServingClient


def main(
    scale: float = 0.1,
    *,
    n_clients: int = 4,
    queries_per_client: int = 12,
    k: int = 10,
    seed: int = 7,
) -> None:
    dataset = build_imsi_like_dataset(scale=scale, seed=seed)
    collection = FeatureCollection(
        drop_last_bin(dataset.features),
        labels=[record.category for record in dataset.records],
    )
    user = SimulatedUser(collection)
    local = RetrievalEngine(collection)  # the byte-identity reference
    print(f"Corpus: {collection.size} vectors, dimension {collection.dimension}")

    # One shared sharded engine behind the server; own_engine=True makes
    # server.close() tear the worker pool down too.
    engine = ShardedEngine(collection, 4, n_workers=2)
    config = ServerConfig(max_batch=n_clients, bypass=True)
    with RetrievalServer(engine, config, own_engine=True) as server:
        host, port = server.address
        print(f"Serving on {host}:{port} -> {server.engine.describe()}")

        with ServingClient(host, port) as client:
            # Plain and parameterised k-NN over the wire.
            results = client.search(collection.vectors[0], k)
            assert results == local.search(collection.vectors[0], k)
            print(f"search: top index {results[0].index} at {results[0].distance:.4f}")

            weights = np.ones(collection.dimension)
            delta = np.zeros(collection.dimension)
            assert client.search_with_parameters(
                collection.vectors[1], k, delta, weights
            ) == local.search_with_parameters(collection.vectors[1], k, delta, weights)

            # The paper's cycle: predict, run the session from the prediction
            # (the judge stays here, only judgments cross the wire), store
            # the outcome.  Each session is byte-identical to the local
            # run_loop from the same start; the second starts from what the
            # first stored.
            query, judge = collection.vectors[2], user.judge_for_query(2)
            for attempt in ("first", "repeat"):
                prediction = client.bypass_mopt(query)
                served_loop = client.run_feedback_session(
                    query,
                    k,
                    judge,
                    initial_delta=prediction.delta,
                    initial_weights=prediction.weights,
                )
                stored = served_loop.parameters_to_store(query)
                if stored is not None:
                    client.bypass_insert(query, stored)
                local_loop = FeedbackEngine(local).run_loop(
                    query,
                    k,
                    judge,
                    initial_delta=prediction.delta,
                    initial_weights=prediction.weights,
                )
                print(
                    f"{attempt} session: {served_loop.iterations} iterations, "
                    f"converged={served_loop.converged}, "
                    f"identical to run_loop: {served_loop.identical_to(local_loop)}"
                )

            # The same session shape through the raw ops: open, then each
            # round judge the current results and ship only judgments.
            opened = client.open_session(collection.vectors[3], k)
            session_id, round_results = opened["session_id"], opened["results"]
            rounds = 0
            while not opened.get("done") and rounds < 10:
                judgments = user.judge_for_query(3)(round_results)
                reply = client.session_feedback(
                    session_id, judgments.indices, judgments.scores
                )
                rounds += 1
                if reply["results"] is not None:
                    round_results = reply["results"]
                if reply["done"]:
                    break
            session_loop = client.close_session(session_id)
            print(
                f"interactive session: {rounds} judged rounds -> "
                f"iterations={session_loop.iterations}, reason-driven stop"
            )

        # Concurrent clients: single-query streams that coalesce server-side.
        rng = np.random.default_rng(seed)
        plan = rng.integers(0, collection.size, size=(n_clients, queries_per_client))
        expected = {
            (c, q): local.search(collection.vectors[plan[c][q]], k)
            for c in range(n_clients)
            for q in range(queries_per_client)
        }
        mismatches = []
        barrier = threading.Barrier(n_clients)

        def client_main(client_id: int) -> None:
            with ServingClient(host, port) as worker:
                barrier.wait()
                for position in range(queries_per_client):
                    served = worker.search(collection.vectors[plan[client_id][position]], k)
                    if served != expected[(client_id, position)]:
                        mismatches.append((client_id, position))

        threads = [threading.Thread(target=client_main, args=(c,)) for c in range(n_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        stats = server.stats()
        window = stats["coalescer"]
        print(
            f"\n{n_clients} concurrent clients, {n_clients * queries_per_client} requests; "
            f"with the sessions' round searches {window['requests']} coalesced requests -> "
            f"{window['dispatches']} engine dispatches "
            f"({window['rows_per_dispatch']:.2f} rows/dispatch, "
            f"largest window {window['largest_dispatch']})"
        )
        print(
            f"sessions: {stats['sessions']['opened']} opened, "
            f"{stats['sessions']['rounds']} judged rounds"
        )
        print(f"byte-identity mismatches: {len(mismatches)} (must be 0)")
        assert not mismatches


if __name__ == "__main__":
    main()

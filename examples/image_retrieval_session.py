"""Figure-1 scenario: bypassing the feedback loop for a single query.

The paper's Figure 1 shows a query image whose default top-5 results contain
no relevant image, while the results obtained with the parameters predicted
by FeedbackBypass contain 4 relevant images.  This example reproduces that
situation end-to-end on the synthetic corpus:

1. train FeedbackBypass on a stream of queries,
2. pick a fresh query image,
3. show its top results under default parameters, under the predicted
   parameters, and under the query's own optimal parameters.

Run with::

    python examples/image_retrieval_session.py
"""

from __future__ import annotations

import numpy as np

from repro.core.oqp import OptimalQueryParameters
from repro.evaluation import InteractiveSession, SessionConfig
from repro.features.datasets import build_imsi_like_dataset


def show_results(session: InteractiveSession, title: str, query_index: int, parameters, k: int) -> int:
    """Print the top-k results under ``parameters`` and return the number of hits."""
    collection = session.collection
    query_point = collection.vector(query_index)
    query_category = collection.label(query_index)
    results = session.retrieval_engine.search_with_parameters(
        query_point, k, delta=parameters.delta, weights=parameters.weights
    )
    hits = 0
    print(f"\n{title}")
    for rank, item in enumerate(results, start=1):
        category = collection.label(item.index)
        marker = "*" if category == query_category else " "
        hits += category == query_category
        print(f"  {rank:>2}. image #{item.index:<5} {category:<10} {marker}  distance={item.distance:.4f}")
    print(f"  -> {hits}/{k} results share the query category ({query_category})")
    return hits


def main() -> None:
    dataset = build_imsi_like_dataset(scale=0.15, seed=5)
    session = InteractiveSession.for_dataset(dataset, SessionConfig(k=30, epsilon=0.05))

    # Train the bypass module on a few hundred queries.
    rng = np.random.default_rng(21)
    training_queries = dataset.sample_query_indices(300, rng)
    session.run_stream(training_queries)
    print(
        f"Trained FeedbackBypass on {len(training_queries)} queries "
        f"({session.bypass.n_stored_queries} stored in the Simplex Tree)."
    )

    # Figure 1 shows a query whose *default* results are poor; scan the
    # largest category for the query the default strategy struggles with
    # most, exactly the situation the paper illustrates.
    k = 5
    dimension = session.collection.dimension
    default_parameters = OptimalQueryParameters.default(dimension)

    def default_hits(candidate: int) -> int:
        point = session.collection.vector(candidate)
        results = session.retrieval_engine.search_with_parameters(
            point, k, delta=default_parameters.delta, weights=default_parameters.weights
        )
        category = session.collection.label(candidate)
        return sum(1 for item in results if session.collection.label(item.index) == category)

    candidates = dataset.indices_of_category("Mammal")
    query_index = int(min(candidates, key=default_hits))
    predicted = session.bypass.mopt(session.collection.vector(query_index))

    loop = session.run_feedback_loop(query_index, default_parameters)
    optimal = OptimalQueryParameters(
        delta=loop.final_state.query_point - session.collection.vector(query_index),
        weights=loop.final_state.weights,
    )

    default_hits = show_results(session, "Default parameters (middle row of Figure 1)", query_index, default_parameters, k)
    bypass_hits = show_results(session, "FeedbackBypass prediction (bottom row of Figure 1)", query_index, predicted, k)
    optimal_hits = show_results(session, "Optimal parameters after the feedback loop", query_index, optimal, k)

    print(
        f"\nSummary: default {default_hits}/{k}, predicted {bypass_hits}/{k}, "
        f"optimal {optimal_hits}/{k} relevant results in the top {k}."
    )


if __name__ == "__main__":
    main()

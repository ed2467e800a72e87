"""Efficiency experiment: Saved-Cycles and Saved-Objects (Figure 15).

For each query the feedback loop is run twice — once from the default
parameters and once from the parameters FeedbackBypass predicts — and the
difference in iterations is the number of feedback cycles the prediction
saves.  Saved-Objects is simply ``Saved-Cycles x k``: every saved cycle is
one k-NN request the underlying database never has to answer (Section 5.3).

The saving is signed: a query whose loop from the prediction runs longer
than from the defaults counts as a negative saving, and the share of such
queries is reported beside the mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.evaluation.session import InteractiveSession, SessionConfig
from repro.features.datasets import ImageDataset
from repro.utils.rng import derive_seed, ensure_rng
from repro.utils.validation import check_dimension


@dataclass
class EfficiencyResult:
    """Saved cycles / objects as a function of the number of processed queries.

    One row of the matrices per value of ``k``, one column per checkpoint.
    """

    k_values: np.ndarray
    checkpoints: np.ndarray
    saved_cycles: np.ndarray   # signed mean saving, shape (len(k_values), len(checkpoints))
    saved_objects: np.ndarray  # saved_cycles * k
    lost_share: np.ndarray     # share of the block's queries whose bypass loop ran longer


def saved_cycles_experiment(
    dataset: ImageDataset,
    *,
    k_values: tuple[int, ...] = (20, 50),
    n_queries: int = 1000,
    checkpoint_every: int = 100,
    warmup_queries: int = 200,
    epsilon: float = 0.05,
    seed: int = 0,
) -> EfficiencyResult:
    """Reproduce Figure 15.

    For every ``k`` a fresh session is trained on the query stream with
    ``measure_bypass_loop`` enabled.  Checkpoints begin after
    ``warmup_queries`` (the paper starts its x-axis at 300 queries): before
    the tree has seen a few hundred queries the predictions are mostly the
    defaults and the saving is zero by construction.
    """
    check_dimension(checkpoint_every, "checkpoint_every")
    checkpoints = [
        position
        for position in range(checkpoint_every, n_queries + 1, checkpoint_every)
        if position > warmup_queries
    ]
    if not checkpoints or checkpoints[-1] != n_queries:
        checkpoints.append(n_queries)
    saved_cycles = np.zeros((len(k_values), len(checkpoints)))
    saved_objects = np.zeros_like(saved_cycles)
    lost_share = np.zeros_like(saved_cycles)

    for row, k in enumerate(k_values):
        config = SessionConfig(k=int(k), epsilon=epsilon, measure_bypass_loop=True)
        session = InteractiveSession.for_dataset(dataset, config)
        rng = ensure_rng(derive_seed(seed, "efficiency", k))
        indices = dataset.sample_query_indices(n_queries, rng)

        block_savings: list[int] = []
        column = 0
        for position, query_index in enumerate(indices, start=1):
            outcome = session.run_query(int(query_index))
            if position > warmup_queries and outcome.loop_iterations_bypass is not None:
                block_savings.append(
                    outcome.loop_iterations_default - outcome.loop_iterations_bypass
                )
            if column < len(checkpoints) and position == checkpoints[column]:
                if block_savings:
                    savings = np.asarray(block_savings, dtype=np.float64)
                    saved_cycles[row, column] = savings.mean()
                    saved_objects[row, column] = saved_cycles[row, column] * k
                    lost_share[row, column] = np.mean(savings < 0)
                block_savings = []
                column += 1

    return EfficiencyResult(
        k_values=np.asarray(k_values, dtype=np.intp),
        checkpoints=np.asarray(checkpoints, dtype=np.intp),
        saved_cycles=saved_cycles,
        saved_objects=saved_objects,
        lost_share=lost_share,
    )

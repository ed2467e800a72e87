"""Persisting learned query parameters across sessions.

The whole point of FeedbackBypass is that feedback effort is *not* lost when
a query session ends.  This example trains a Simplex Tree, saves it to disk,
reloads it into a brand-new session over the same corpus and shows that

* predictions of the reloaded tree are identical to the original's, and
* the new session immediately benefits from the previously learned
  parameters (no re-training needed).

Run with::

    python examples/persistence_across_sessions.py
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from repro.core.bypass import FeedbackBypass
from repro.core.persistence import load_simplex_tree, save_simplex_tree
from repro.evaluation import InteractiveSession, SessionConfig
from repro.evaluation.simulated_user import SimulatedUser
from repro.database.collection import FeatureCollection
from repro.features.datasets import build_imsi_like_dataset
from repro.features.normalization import drop_last_bin


def main() -> None:
    dataset = build_imsi_like_dataset(scale=0.1, seed=99)
    config = SessionConfig(k=20, epsilon=0.05)

    # ---------------- first session: learn from scratch ----------------- #
    first_session = InteractiveSession.for_dataset(dataset, config)
    rng = np.random.default_rng(1)
    first_session.run_stream(dataset.sample_query_indices(200, rng))
    print(
        f"First session stored {first_session.bypass.n_stored_queries} queries "
        f"in a tree of depth {first_session.bypass.tree.depth()}."
    )

    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "simplex_tree.npz")
        save_simplex_tree(first_session.bypass.tree, path)
        print(f"Saved the Simplex Tree to {path} ({os.path.getsize(path)} bytes).")

        # ---------------- second session: resume from disk -------------- #
        reloaded_tree = load_simplex_tree(path)

    embedded = drop_last_bin(dataset.features)
    labels = [record.category for record in dataset.records]
    collection = FeatureCollection(embedded, labels=labels)

    resumed_bypass = FeedbackBypass.from_tree(reloaded_tree, collection.dimension)
    second_session = InteractiveSession(collection, SimulatedUser(collection), resumed_bypass, config)

    # Predictions agree exactly between the two sessions.
    probe = collection.vector(int(dataset.indices_of_category("Bird")[0]))
    original = first_session.bypass.mopt(probe).to_vector()
    resumed = second_session.bypass.mopt(probe).to_vector()
    print(f"Predictions identical after reload: {np.allclose(original, resumed)}")

    # The resumed session profits immediately: compare default vs predicted
    # precision on a fresh block of queries without any new training.
    rng = np.random.default_rng(2)
    evaluation = second_session.run_stream(dataset.sample_query_indices(80, rng))
    default = float(np.mean([o.default_precision for o in evaluation]))
    bypass = float(np.mean([o.bypass_precision for o in evaluation]))
    print(f"Fresh session, no retraining: Pr(Default)={default:.3f}  Pr(Bypass)={bypass:.3f}")


if __name__ == "__main__":
    main()

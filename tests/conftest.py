"""Shared fixtures for the test suite.

The corpora used here are deliberately small (a handful of images per
category, 16-bin histograms where possible) so the full suite stays fast
while still exercising the real code paths end-to-end.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.database.collection import FeatureCollection
from repro.evaluation.session import InteractiveSession, SessionConfig
from repro.features.datasets import build_imsi_like_dataset
from repro.features.normalization import drop_last_bin
from repro.utils.validation import ValidationError


def bounded_wait(predicate, timeout: float = 10.0, interval: float = 0.005, *, strict: bool = True) -> None:
    """Bounded poll until ``predicate()`` is true (replaces blind sleeps).

    Shared by the serving stress suites — anywhere a test must wait for a
    counter maintained by another thread.  ``strict`` (default) raises when
    the deadline passes; ``strict=False`` just stops waiting, for call
    sites that only use the poll to de-flake a later assertion.
    """
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            if strict:
                raise AssertionError("condition not reached within the deadline")
            return
        time.sleep(interval)


@pytest.fixture(scope="session")
def wait_until():
    """The bounded-poll helper as a fixture (importable-from-conftest is
    ambiguous with two conftests on ``sys.path``; a fixture is not)."""
    return bounded_wait


def child_by_child_locate(root, point, tolerance: float = 1e-9):
    """Point location exactly as the Simplex Tree defines it, one solve per child.

    The reference for ``IncrementalTriangulation.locate``: descend from
    ``root`` into the first child, in order, whose simplex contains the point
    (else the child whose smallest barycentric coordinate is largest), using
    nothing but the public ``node.children`` / ``node.simplex`` API.  Returns
    ``(leaf, visited)``.
    """
    if not root.simplex.contains(point, tolerance=tolerance):
        raise ValidationError("point lies outside the root simplex")
    node, visited = root, 1
    while node.children:
        chosen = None
        for child in node.children:
            if child.simplex.contains(point, tolerance=tolerance):
                chosen = child
                break
        if chosen is None:
            # Numerical corner case: the point sits on a face shared by
            # children but each strict test rejected it.
            chosen = max(
                node.children,
                key=lambda child: float(np.min(child.simplex.barycentric_coordinates(point))),
            )
        node = chosen
        visited += 1
    return node, visited


@pytest.fixture(scope="session")
def locate_oracle():
    """The child-by-child walk (a fixture for the same reason as ``wait_until``)."""
    return child_by_child_locate


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """A deterministic random generator for ad-hoc sampling inside tests."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_dataset():
    """A very small corpus with 16-bin histograms (D = 15 query space)."""
    return build_imsi_like_dataset(
        scale=0.03, n_hue_bins=4, n_saturation_bins=4, pixels_per_image=200, seed=101
    )


@pytest.fixture(scope="session")
def small_dataset():
    """A small corpus with the paper's 32-bin histograms (D = 31 query space)."""
    return build_imsi_like_dataset(scale=0.04, pixels_per_image=200, seed=202)


@pytest.fixture(scope="session")
def tiny_collection(tiny_dataset) -> FeatureCollection:
    """Embedded (last bin dropped), labelled collection of the tiny corpus."""
    embedded = drop_last_bin(tiny_dataset.features)
    labels = [record.category for record in tiny_dataset.records]
    return FeatureCollection(embedded, labels=labels)


@pytest.fixture()
def tiny_session(tiny_dataset) -> InteractiveSession:
    """A fresh interactive session over the tiny corpus (k = 10)."""
    config = SessionConfig(k=10, epsilon=0.05, max_iterations=6)
    return InteractiveSession.for_dataset(tiny_dataset, config)


@pytest.fixture(scope="session")
def trained_session(tiny_dataset) -> InteractiveSession:
    """A session already trained on 60 queries (shared, read-mostly)."""
    config = SessionConfig(k=10, epsilon=0.05, max_iterations=6)
    session = InteractiveSession.for_dataset(tiny_dataset, config)
    sampler = np.random.default_rng(7)
    session.run_stream(tiny_dataset.sample_query_indices(60, sampler))
    return session

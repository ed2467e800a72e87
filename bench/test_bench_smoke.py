"""Smoke test of the benchmark itself: tiny corpora, 1/100 op counts.

Runs every workload twice in ``--smoke`` mode (a real server child, the
served phase, the traced replay) writing only under ``tmp_path``, and checks
what a later PR relies on: the names in ``BENCHMARK.json`` are the names the
benchmark prints, inputs are a function of the seed, the exact counters
repeat, nothing fails — and the oracle bites when an answer is wrong.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from bench import cli, loadgen, oracle, reaper
from bench.workloads import WORKLOADS, generate
from repro.database.collection import FeatureCollection
from repro.database.engine import RetrievalEngine
from repro.database.query import ResultSet
from repro.database.segments import LiveCollection

pytestmark = pytest.mark.serving

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Counters that are a function of the seed alone and must repeat exactly.
EXACT = ("codec.request_bytes", "codec.response_bytes", "distances.flops")


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    out_dir = str(tmp_path_factory.mktemp("bench-out"))
    runs = [
        {
            name: cli.measure(name, 2001, None, traced=True, smoke=True, out_dir=out_dir)
            for name in WORKLOADS
        }
        for _ in range(2)
    ]
    # What ``python3 -m bench`` does on its way out, minus the waiting for
    # children that are pytest's own business.
    reaper.stop_resource_tracker()
    return runs


def test_no_process_is_left_running(smoke_runs):
    """Server children, shard workers and the shared-memory tracker have all ended."""
    assert reaper.children() == []


def test_definitions_match_what_the_benchmark_prints(smoke_runs):
    definitions = loadgen.load_definitions()
    assert [entry["name"] for entry in definitions["workloads"]] == list(WORKLOADS)
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in definitions[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in [entry["name"] for entry in definitions["end_to_end"]]
    for result in smoke_runs[0].values():
        for section in ("end_to_end", "per_layer"):
            last_line = cli.report(result, definitions, traced=section == "per_layer")
            assert set(last_line["metrics"]) == {entry["name"] for entry in definitions[section]}


def test_inputs_are_a_function_of_the_seed():
    for name, workload in WORKLOADS.items():
        small = workload.smoke()
        first = generate(small, 2001).checksums()
        assert first == generate(small, 2001).checksums(), name
        assert first != generate(small, 2002).checksums(), name


def test_smoke_runs_are_correct_and_exact_counters_repeat(smoke_runs):
    first, second = smoke_runs
    for name in WORKLOADS:
        assert first[name]["correct"], first[name]["problems"]
        assert first[name]["failed"] == 0 and second[name]["failed"] == 0
        assert first[name]["per_layer"]["failed_share"] == 0.0
        assert first[name]["oracle_checked"] > 0
        assert first[name]["ops_by_kind"] == second[name]["ops_by_kind"], name
        assert first[name]["input_checksums"] == second[name]["input_checksums"]
        for counter in EXACT:
            assert first[name]["per_layer"][counter] == second[name]["per_layer"][counter], (name, counter)
            assert first[name]["per_layer"][counter] > 0


def test_the_oracle_counts_a_corrupted_response():
    workload = WORKLOADS["serve_small"].smoke()
    inputs = generate(workload, 2001)
    engine = RetrievalEngine(FeatureCollection(inputs.corpus))
    good = engine.search_batch(inputs.queries[:1], workload.k)
    swapped = good[0].indices().copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    bad = [ResultSet.from_arrays(swapped, good[0].distances())]
    records = [
        loadgen.Record(0, "search", 0, 1, payload=good),
        loadgen.Record(0, "search", 1, 2, payload=bad),
    ]
    verdict = oracle.check(workload, inputs, records, client=None)
    assert (verdict["checked"], verdict["failed"]) == (2, 1)


class _InProcessClient:
    """The two calls the quiesced live check makes, answered without a socket."""

    def __init__(self, live: LiveCollection) -> None:
        self._live, self._engine = live, RetrievalEngine(live)

    def corpus_stats(self) -> dict:
        return self._live.corpus_stats()

    def search(self, query, k):
        return self._engine.search_batch(np.asarray(query)[None, :], k)[0]


def test_the_oracle_counts_a_dropped_acknowledged_insert():
    workload = WORKLOADS["live_mixed"].smoke()
    inputs = generate(workload, 2001)
    rows = inputs.write_rows[:4]
    kept = LiveCollection(inputs.corpus)
    acknowledged = loadgen.Record(0, "insert", 0, 1, payload=(kept.insert(rows), rows))
    assert oracle.check(workload, inputs, [acknowledged], _InProcessClient(kept))["failed"] == 0
    # The same acknowledgement, but the served corpus never applied the insert.
    dropped = _InProcessClient(LiveCollection(inputs.corpus))
    verdict = oracle.check(workload, inputs, [acknowledged], dropped)
    assert verdict["failed"] >= 4 and verdict["problems"]

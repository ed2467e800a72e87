"""The answer oracle: every sampled response is checked after the clock stops.

Two independent references.  A benchmark-owned brute-force float64 top-k
(ties within 1e-9 allowed) says the answer is *right*; the in-process
``RetrievalEngine`` / ``FeedbackEngine`` of the same commit says it is
*byte-identical* to what the library computes without a socket in between.
A response failing either counts as a failed request.
"""

from __future__ import annotations

import numpy as np

from repro.database.collection import FeatureCollection
from repro.database.engine import RetrievalEngine
from repro.evaluation.simulated_user import CategoryJudge
from repro.feedback.engine import FeedbackEngine

TIE_TOLERANCE = 1e-9

#: Searches of the quiesced live corpus compared against its frozen rebuild.
QUIESCED_PROBES = 32

#: Rows of a sampled multi-row batch that also get the brute-force check.
BRUTE_ROWS_PER_BATCH = 1


def brute_force_ok(vectors, query, k: int, result, weights=None, ids=None) -> bool:
    """Is ``result`` a correct top-``k`` of ``query`` over ``vectors``?

    ``ids`` maps rows of ``vectors`` to the ids the result speaks in (a live
    corpus); ``weights`` makes the distance the weighted Euclidean one.
    """
    difference = vectors - query
    squared = difference * difference if weights is None else weights * difference * difference
    distances = np.sqrt(squared.sum(axis=1))
    labels = np.arange(vectors.shape[0]) if ids is None else ids
    order = np.lexsort((labels, distances))[: min(k, vectors.shape[0])]
    served_ids, served = result.indices(), result.distances()
    if served_ids.shape[0] != order.shape[0]:
        return False
    if ids is not None:
        rows = np.searchsorted(ids, served_ids)
        if rows.max(initial=0) >= ids.shape[0] or not np.array_equal(ids[rows], served_ids):
            return False  # an id that is not alive
    else:
        rows = served_ids
    if not np.allclose(distances[rows], served, rtol=0.0, atol=TIE_TOLERANCE):
        return False  # a reported distance is not that row's distance
    # The same ids — or, among ties, a different but equally near set.
    return bool(
        np.array_equal(labels[order], served_ids)
        or np.allclose(distances[order], served, rtol=0.0, atol=TIE_TOLERANCE)
    )


def check_searches(workload, inputs, records) -> "tuple[int, int]":
    """Sampled frozen-corpus searches against both references."""
    engine = RetrievalEngine(FeatureCollection(inputs.corpus))
    checked = failed = 0
    width = workload.batch_rows
    for record in records:
        if record.payload is None or not record.ok:
            continue
        rows = inputs.queries[record.index * width : (record.index + 1) * width]
        expected = engine.search_batch(rows, workload.k)
        good = len(record.payload) == len(expected) and all(
            served == reference for served, reference in zip(record.payload, expected)
        )
        for row, served in list(zip(rows, record.payload))[:BRUTE_ROWS_PER_BATCH]:
            good = good and brute_force_ok(inputs.corpus, row, workload.k, served)
        checked += 1
        failed += not good
    return checked, failed


def check_sessions(workload, inputs, records) -> "tuple[int, int]":
    """Sampled sessions: the served loop equals ``run_loop`` from the same prediction."""
    engine = RetrievalEngine(FeatureCollection(inputs.corpus, labels=inputs.labels.tolist()))
    feedback = FeedbackEngine(engine)
    checked = failed = 0
    for record in records:
        if not record.ok or "loop" not in record.payload:
            continue
        row = record.payload["row"]
        query = inputs.corpus[row]
        prediction, served = record.payload["prediction"], record.payload["loop"]
        reference = feedback.run_loop(
            query,
            workload.k,
            CategoryJudge(inputs.labels, str(inputs.labels[row])),
            initial_delta=prediction.delta,
            initial_weights=prediction.weights,
        )
        good = served.identical_to(reference) and brute_force_ok(
            inputs.corpus,
            query + prediction.delta,
            workload.k,
            served.initial_results,
            weights=prediction.weights,
        )
        checked += 1
        failed += not good
    return checked, failed


def ledger(inputs, records) -> "tuple[dict, set]":
    """Every id the server ever acknowledged, with its row, and the deleted ids."""
    archive = {identifier: row for identifier, row in enumerate(inputs.corpus)}
    deleted = set()
    for record in records:
        if record.kind == "insert" and record.ok:
            ids, rows = record.payload
            archive.update(zip(ids.tolist(), rows))
        elif record.kind == "delete" and record.ok:
            deleted.update(record.payload.tolist())
    return archive, deleted


def check_live(workload, inputs, records, all_records, client) -> "tuple[int, int, list]":
    """Read-your-own-writes during the run, frozen-rebuild identity after it.

    ``all_records`` includes the warm-up's writes: the surviving set is a
    property of everything the server acknowledged, not of the timed phase.
    """
    archive, deleted = ledger(inputs, all_records)
    checked = failed = 0
    for record in records:
        if record.kind != "search" or record.payload is None or not record.ok:
            continue
        query, result, expectation = record.payload
        served_ids = result.indices().tolist()
        good = all(identifier in archive for identifier in served_ids)
        if good:
            true = np.sqrt(((np.array([archive[i] for i in served_ids]) - query) ** 2).sum(axis=1))
            good = np.allclose(true, result.distances(), rtol=0.0, atol=TIE_TOLERANCE) and bool(
                np.all(np.diff(result.distances()) >= 0)
            )
        if expectation is not None:
            # The connection's previous op was its own insert (must be
            # visible) or its own delete (must be gone).
            good = good and (expectation[1] in served_ids) == (expectation[0] == "present")
        checked += 1
        failed += not good

    # Quiesced: the served corpus against a frozen rebuild of exactly the
    # acknowledged surviving rows, in id order.
    problems = []
    ids = np.array(sorted(set(archive) - deleted), dtype=np.intp)
    vectors = np.array([archive[identifier] for identifier in ids.tolist()])
    size = client.corpus_stats()["size"]
    if size != ids.shape[0]:
        problems.append(f"served corpus holds {size} rows, acknowledged survivors are {ids.shape[0]}")
        failed += abs(size - ids.shape[0])
    frozen = RetrievalEngine(FeatureCollection(vectors))
    for query in inputs.queries[:QUIESCED_PROBES]:
        served = client.search(query, workload.k)
        rebuilt = frozen.search_batch(query[None, :], workload.k)[0]
        good = (
            np.array_equal(served.indices(), ids[rebuilt.indices()])
            and np.array_equal(served.distances(), rebuilt.distances())
            and brute_force_ok(vectors, query, workload.k, served, ids=ids)
        )
        checked += 1
        failed += not good
    return checked, failed, problems


def check(workload, inputs, records, client, *, warmup_records=(), cold_iterations=None) -> dict:
    """Run every check that applies to ``workload``; never inside a timed phase."""
    problems = []
    if workload.live:
        checked, failed, problems = check_live(
            workload, inputs, records, list(warmup_records) + list(records), client
        )
    elif workload.cold_sessions:
        checked, failed = check_sessions(workload, inputs, records)
        warm = [record.payload["iterations"] for record in records if record.ok]
        if warm and cold_iterations is not None and not np.mean(warm) < cold_iterations:
            problems.append(
                f"warm sessions took {np.mean(warm):.3f} feedback cycles, "
                f"cold ones {cold_iterations:.3f}: the bypass saved nothing"
            )
    else:
        checked, failed = check_searches(workload, inputs, records)
    if not checked:
        problems.append("the oracle had no sampled response to check")
    return {"checked": checked, "failed": failed, "problems": problems}

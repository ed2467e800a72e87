"""Anytime retrieval budgets: work caps, deadlines and coverage reports.

Interactive feedback loops only pay off when every round returns before the
user loses patience.  This module gives queries a :class:`Budget` — a cap on
**work** (metric evaluations: corpus rows × queries for scans, individual
pivot/bucket evaluations for the tree descents) and/or a **wall-clock
deadline** — and a :class:`Coverage` report describing what an expired
budget actually consulted: the fraction of the corpus scanned, how many
shards / segments answered, and a quality bound where the index geometry
admits one.

The contract every budgeted layer honours:

* **Absent or unlimited budgets change nothing.**  ``budget=None`` (and a
  ``Budget()`` with neither cap) takes the literal exact code path, so the
  bits are structurally identical to the pre-budget engine.  A *finite but
  sufficient* budget is also byte-identical: a scan granted every row
  pools and re-scores exactly what the unbudgeted scan does, and a tree
  traversal whose grants never run dry is the exact traversal.
* **Execution under a smaller work cap is a prefix of execution under a
  larger one.**  Charging never alters a traversal decision — it only
  truncates — so the visited set grows monotonically with ``max_rows``,
  and recall against the exact answer never decreases (an exact top-k
  object, once scanned, is in every superset's top-k).
* **The budget object is the coverage carrier.**  Budgeted entry points
  return plain result lists (same shapes as the exact path, possibly
  shorter or empty) and accumulate the accounting on the budget; callers
  read :meth:`Budget.coverage` afterwards.  A zero budget returns
  well-formed empty results instead of raising.

Deadlines are *durations* (seconds from construction), so a budget shipped
over the serving wire restarts server-side on arrival instead of racing the
client's clock.  Tests inject ``clock=`` for deterministic deadline
behaviour; only smoke tests touch the real clock.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro.utils.validation import ValidationError

__all__ = ["Budget", "Coverage"]


@dataclass(frozen=True)
class Coverage:
    """What one budgeted request actually consulted.

    Attributes
    ----------
    rows_total, rows_scanned:
        Work accounting in metric evaluations (corpus rows × queries).
        ``rows_total`` is the full-scan-equivalent work of the request;
        ``rows_scanned`` is what the budget actually paid for.
    complete:
        True when nothing was skipped for budget reasons — the results are
        the exact answer.  (A metric index may still have *pruned* most of
        the corpus; pruning is exactness, not truncation.)
    shards_answered, shards_skipped:
        Per-shard completeness of a :class:`~repro.database.sharding.ShardedEngine`
        fan-out (zero/zero on unsharded engines).
    segments_answered, segments_skipped:
        Per-segment completeness of a live snapshot's composition
        (zero/zero on frozen collections).
    quality_bound:
        A lower bound on the distance of any object the budget skipped,
        when the index geometry admits one (the minimum lower bound over
        budget-skipped subtrees).  ``None`` when the request completed, or
        when any truncated region carries no bound (a linear-scan tail).
        A non-``None`` bound ``B`` certifies that no missed neighbour is
        closer than ``B``.
    """

    rows_total: int
    rows_scanned: int
    complete: bool
    shards_answered: int = 0
    shards_skipped: int = 0
    segments_answered: int = 0
    segments_skipped: int = 0
    quality_bound: "float | None" = None

    @property
    def fraction(self) -> float:
        """Fraction of the full-scan-equivalent work actually performed."""
        if self.rows_total <= 0:
            return 1.0 if self.complete else 0.0
        return self.rows_scanned / self.rows_total

    def to_dict(self) -> dict:
        """A plain-dict form that survives both serving codecs."""
        return {
            "rows_total": int(self.rows_total),
            "rows_scanned": int(self.rows_scanned),
            "complete": bool(self.complete),
            "fraction": float(self.fraction),
            "shards_answered": int(self.shards_answered),
            "shards_skipped": int(self.shards_skipped),
            "segments_answered": int(self.segments_answered),
            "segments_skipped": int(self.segments_skipped),
            "quality_bound": None if self.quality_bound is None else float(self.quality_bound),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Coverage":
        """Rebuild a coverage report from its wire dict."""
        if not isinstance(payload, dict):
            raise ValidationError("coverage payload must be a dict")
        return cls(
            rows_total=int(payload["rows_total"]),
            rows_scanned=int(payload["rows_scanned"]),
            complete=bool(payload["complete"]),
            shards_answered=int(payload.get("shards_answered", 0)),
            shards_skipped=int(payload.get("shards_skipped", 0)),
            segments_answered=int(payload.get("segments_answered", 0)),
            segments_skipped=int(payload.get("segments_skipped", 0)),
            quality_bound=payload.get("quality_bound"),
        )


class Budget:
    """A work cap and/or wall-clock deadline for one retrieval request.

    Parameters
    ----------
    max_rows:
        Cap on metric evaluations (corpus rows × queries).  ``0`` is a
        legal budget: every layer returns well-formed empty results.
        ``None`` leaves work uncapped.
    deadline:
        Wall-clock allowance in **seconds from construction** (a duration,
        not an absolute time, so it survives the serving wire and restarts
        on arrival).  ``None`` leaves time uncapped.
    clock:
        The monotonic clock the deadline reads (default
        :func:`time.monotonic`).  Tests inject a fake clock here so
        deadline behaviour is deterministic on slow CI.

    A budget with neither cap is *unlimited*: every entry point detects
    :attr:`is_unlimited` and takes the exact path verbatim, recording
    complete coverage.  Budgets are single-request accounting objects —
    thread-safe, but reusing one across requests accumulates its coverage.
    """

    def __init__(
        self,
        max_rows: "int | None" = None,
        deadline: "float | None" = None,
        *,
        clock=time.monotonic,
    ) -> None:
        if max_rows is not None:
            max_rows = int(max_rows)
            if max_rows < 0:
                raise ValidationError("max_rows must be non-negative (or None for no cap)")
        if deadline is not None:
            deadline = float(deadline)
            if deadline < 0:
                raise ValidationError("deadline must be non-negative (or None for no cap)")
        self._max_rows = max_rows
        self._deadline = deadline
        self._clock = clock
        self._start = clock() if deadline is not None else None
        self._lock = threading.Lock()
        self._spent = 0
        self._rows_total = 0
        self._depth = 0
        self._truncated = False
        self._bound_min = float("inf")
        self._unbounded_skip = False
        self._shards_answered = 0
        self._shards_skipped = 0
        self._segments_answered = 0
        self._segments_skipped = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def max_rows(self) -> "int | None":
        """The work cap in metric evaluations (``None`` = uncapped)."""
        return self._max_rows

    @property
    def deadline(self) -> "float | None":
        """The wall-clock allowance in seconds (``None`` = uncapped)."""
        return self._deadline

    @property
    def is_unlimited(self) -> bool:
        """True when neither cap is set — the exact path applies verbatim."""
        return self._max_rows is None and self._deadline is None

    @property
    def spent(self) -> int:
        """Metric evaluations charged so far."""
        with self._lock:
            return self._spent

    def _expired(self) -> bool:
        return self._deadline is not None and (self._clock() - self._start) >= self._deadline

    def exhausted(self) -> bool:
        """True when no further work may be charged (cap hit or deadline past)."""
        with self._lock:
            if self._max_rows is not None and self._spent >= self._max_rows:
                return True
        return self._expired()

    # ------------------------------------------------------------------ #
    # Charging
    # ------------------------------------------------------------------ #
    def grant_rows(self, n_rows: int, per_row: int = 1) -> int:
        """Grant and charge up to ``n_rows`` units of ``per_row`` evaluations.

        Returns how many of the ``n_rows`` units the budget admits (their
        ``per_row`` evaluations are charged immediately).  The grant is
        deterministic for work caps — ``min(n_rows, remaining // per_row)``
        — which is what makes budget-clamped scan blocks reproducible;
        deadlines are all-or-nothing per grant (either the clock has
        expired or it has not).  A short grant does **not** record the
        skipped remainder: the caller notes it via :meth:`note_skip` with
        whatever bound it knows.
        """
        if n_rows <= 0 or per_row <= 0:
            return 0
        if self._expired():
            return 0
        with self._lock:
            if self._max_rows is None:
                granted = n_rows
            else:
                remaining = self._max_rows - self._spent
                if remaining <= 0:
                    return 0
                granted = min(n_rows, remaining // per_row)
            self._spent += granted * per_row
            return granted

    @contextmanager
    def scope(self, rows_total: int):
        """Declare the full-scan-equivalent work of one entry point.

        Budgeted layers nest (a sharded engine fans out to shard engines,
        a live snapshot to per-segment scans); only the *outermost* scope
        adds to the coverage denominator, so ``rows_total`` is counted
        exactly once per request however deep the composition goes.
        """
        with self._lock:
            self._depth += 1
            if self._depth == 1:
                self._rows_total += int(rows_total)
        try:
            yield self
        finally:
            with self._lock:
                self._depth -= 1

    # ------------------------------------------------------------------ #
    # Coverage accounting
    # ------------------------------------------------------------------ #
    def note_skip(self, lower_bound: "float | None" = None) -> None:
        """Record one budget-skipped region and its distance lower bound.

        ``lower_bound=None`` marks an *unbounded* skip (a linear-scan tail
        has no geometry); any unbounded skip voids the overall quality
        bound.  Tree descents pass the skipped subtree's triangle-inequality
        bound, and the report keeps the minimum over all skips.
        """
        with self._lock:
            self._truncated = True
            if lower_bound is None:
                self._unbounded_skip = True
            else:
                self._bound_min = min(self._bound_min, float(lower_bound))

    def note_exact(self, rows_total: int) -> None:
        """Record a request served entirely by the exact path (no budget bite)."""
        with self._lock:
            self._rows_total += int(rows_total)
            self._spent += int(rows_total)

    def note_shard(self, answered: bool) -> None:
        """Record one shard's fate in the fan-out."""
        with self._lock:
            if answered:
                self._shards_answered += 1
            else:
                self._shards_skipped += 1

    def note_segment(self, answered: bool) -> None:
        """Record one live segment's fate in the composition."""
        with self._lock:
            if answered:
                self._segments_answered += 1
            else:
                self._segments_skipped += 1

    def coverage(self) -> Coverage:
        """The accumulated coverage report of everything charged so far."""
        with self._lock:
            complete = not self._truncated
            if complete or self._unbounded_skip or self._bound_min == float("inf"):
                quality_bound = None
            else:
                quality_bound = self._bound_min
            return Coverage(
                rows_total=self._rows_total,
                rows_scanned=self._spent,
                complete=complete,
                shards_answered=self._shards_answered,
                shards_skipped=self._shards_skipped,
                segments_answered=self._segments_answered,
                segments_skipped=self._segments_skipped,
                quality_bound=quality_bound,
            )

    # ------------------------------------------------------------------ #
    # Wire form
    # ------------------------------------------------------------------ #
    def to_wire(self) -> dict:
        """The budget spec as a plain dict (the serving request field)."""
        return {"max_rows": self._max_rows, "deadline": self._deadline}

    @classmethod
    def from_wire(cls, spec, *, clock=time.monotonic) -> "Budget":
        """Build a budget from a wire spec dict (validating its keys).

        The deadline restarts here — it is a duration, and the server's
        allowance begins when the request arrives, not when the client
        composed it.
        """
        if isinstance(spec, Budget):
            return spec
        if not isinstance(spec, dict):
            raise ValidationError("budget spec must be a dict (or a Budget)")
        unknown = set(spec) - {"max_rows", "deadline"}
        if unknown:
            raise ValidationError(f"unknown budget keys {sorted(unknown)!r}")
        return cls(
            max_rows=spec.get("max_rows"), deadline=spec.get("deadline"), clock=clock
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Budget(max_rows={self._max_rows}, deadline={self._deadline})"


def effective_budget(budget: "Budget | None") -> "Budget | None":
    """``None`` unless ``budget`` actually constrains anything.

    The dispatch idiom of every budgeted entry point: an absent or
    unlimited budget takes the exact code path verbatim (byte-identity by
    construction), so layers only branch on the finite case.
    """
    if budget is None or budget.is_unlimited:
        return None
    return budget


def fan_out(parts, run, budget: "Budget | None", rows_total: int, note, mapper=None) -> list:
    """Answer one request part by part; returns the answered parts' results.

    The one "split the corpus, run each part, merge the per-part top-k"
    composition of the library (live segments, shards): ``run(part,
    budget)`` answers the request on one part, ``note(budget,
    answered=...)`` records that part's fate (:meth:`Budget.note_segment` /
    :meth:`Budget.note_shard`), and the returned list — in part order,
    skipped parts absent — feeds :func:`~repro.database.index.merge_topk`.

    A finite budget consults the parts serially in order inside one
    coverage scope of ``rows_total`` evaluations, threading itself into
    every ``run``; parts it no longer reaches are unbounded skips.  An
    absent or unlimited budget takes the exact path: every part runs with
    ``budget=None`` through ``mapper`` (an ordered ``map(function, items)``
    such as :meth:`~repro.database.sharding.WorkerPool.map`; serial when
    omitted), and an unlimited budget records the complete coverage.
    """
    effective = effective_budget(budget)
    if effective is None:
        if budget is not None:
            budget.note_exact(rows_total)
            for _ in parts:
                note(budget, answered=True)
        if mapper is None:
            return [run(part, None) for part in parts]
        return mapper(lambda part: run(part, None), parts)
    answered = []
    with effective.scope(rows_total):
        for part in parts:
            if effective.exhausted():
                effective.note_skip(None)
                note(effective, answered=False)
                continue
            answered.append(run(part, effective))
            note(effective, answered=True)
    return answered

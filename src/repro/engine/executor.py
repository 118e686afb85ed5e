"""Physical execution of query plans against any feature store.

This module is the **only** implementation of the Section 4.4 search
semantics (point query ∪ line query → dedup → optional witness
refinement).  The storage backends carry no copy of it; they expose four
narrow block primitives instead::

    scan_points_array(kind, ...)        sequential pass over the point table
    probe_point_index_array(kind, T)    index candidates with Δt <= T
    scan_lines_array(kind, ...)         sequential pass over the line table
    probe_line_index_array(kind, T)     index candidates with Δt1 <= T

Each primitive returns an ``(m, width)`` float64 block — ``(m, 6)`` for
points (``dt, dv, t_d, t_c, t_b, t_a``), ``(m, 8)`` for lines
(``dt1, dv1, dt2, dv2, t_d, t_c, t_b, t_a``) — so candidates flow from
storage to the union/dedup as whole arrays with no per-row Python.
Primitives may *pre-filter* with the thresholds they are given (SQLite
pushes the predicate into SQL, MiniDB filters on B+tree keys before
paying the heap fetch) but must never drop a matching row; the executor
always applies the exact vectorized predicates, so pushdown is purely an
optimization.

:func:`execute_batch` answers a whole grid of queries in one shared pass
per operator: candidates are fetched once for the widest ``T`` and every
query is answered with vectorized masks over the shared arrays — the
fast path for the Figures 16-24 workload.  A grid deduplicates once:
its candidates form one sorted distinct-row matrix, and each cell is a
bitmap over that matrix's ids (ascending ids are the §4.4 order);
:func:`execute_batch_partitioned` unions its partitions' matrices the
same way, once per grid.

Every entry point returns :class:`~repro.engine.resilience.QueryOutcome`,
whose answer is the deduplicated ``(n, 4)`` ident matrix ``rows``.
Answers stay matrices through the union, the scatter–gather merge and
the telemetry; :class:`~repro.types.SegmentPair` objects are built only
at the edge, once, when a caller reads ``pairs`` (the cells of one grid
share them).
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from dataclasses import asdict, dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.queries import line_mask, point_mask
from ..core.results import rank_hits
from ..errors import QueryTimeout, StorageError
from ..obs import context as obs_context
from ..obs.metrics import REGISTRY
from ..obs.tracing import span
from ..types import SegmentPair, pairs_of
from .plan import QueryPlan
from .resilience import (
    CompletenessReport,
    QueryGuard,
    QueryOutcome,
    ResultStatus,
    record_degraded,
)

__all__ = [
    "OperatorStats",
    "execute",
    "execute_batch",
    "execute_partitioned",
    "execute_batch_partitioned",
]

_POINT_WIDTH = 6
_LINE_WIDTH = 8

_ROWS_FETCHED = {
    op: REGISTRY.counter(
        "repro_engine_rows_fetched_total",
        "Candidate rows returned by physical operators",
        {"operator": op},
    )
    for op in ("point_range", "line_cross")
}
_ROWS_MATCHED = {
    op: REGISTRY.counter(
        "repro_engine_rows_matched_total",
        "Rows surviving the exact predicate, per operator",
        {"operator": op},
    )
    for op in ("point_range", "line_cross")
}
_REFINE_CANDIDATES = REGISTRY.counter(
    "repro_engine_refine_candidates_total",
    "Candidate pairs entering witness refinement",
)
_REFINE_KEPT = REGISTRY.counter(
    "repro_engine_refine_kept_total",
    "Hits surviving witness refinement",
)
_PARTITIONS_SCANNED = REGISTRY.counter(
    "repro_engine_partitions_scanned_total",
    "Partitions actually read by partitioned execution",
)
_PARTITIONS_PRUNED = REGISTRY.counter(
    "repro_engine_partitions_pruned_total",
    "Partitions skipped because their time bounds miss the query t_range",
)


@dataclass(frozen=True)
class OperatorStats:
    """What one physical operator actually did."""

    operator: str  # "point_range" | "line_cross"
    table: str
    access: str
    rows_fetched: int  # candidate rows the primitive returned
    rows_matched: int  # rows surviving the exact predicate

    def to_dict(self) -> Dict[str, object]:
        """The JSON form ``slow_query`` events and EXPLAIN carry."""
        return asdict(self)


#: The store block primitive behind each (feature group, access path).
_PRIMITIVES = {
    ("points", "scan"): "scan_points_array",
    ("points", "index"): "probe_point_index_array",
    ("lines", "scan"): "scan_lines_array",
    ("lines", "index"): "probe_line_index_array",
}


def _fetch_block(
    store, group: str, access: str, kind: str, t_threshold, v_threshold,
    cache: str, pushdown: bool, guard: Optional[QueryGuard],
) -> np.ndarray:
    """One candidate block of feature ``group`` (``"points"`` /
    ``"lines"``) through the store primitive for ``access``.

    The thresholds reach the primitive as pushdown hints only with
    ``pushdown``; without it a scan gets none and a probe just the
    ``t_threshold`` it cannot work without, so the block holds the
    access path's raw candidates.  The grid path always takes both.
    """
    if access == "grid":
        return store.probe_point_grid(kind, t_threshold, v_threshold)
    primitive = getattr(store, _PRIMITIVES[group, access])
    t = t_threshold if pushdown or access == "index" else None
    v = v_threshold if pushdown else None
    return primitive(kind, t_threshold=t, v_threshold=v, cache=cache,
                     guard=guard)


def _t_range_mask(
    mask: np.ndarray,
    rows: np.ndarray,
    t_range,
    t_d_col: int,
    t_a_col: int,
) -> np.ndarray:
    """Narrow ``mask`` to rows whose ``[t_d, t_a]`` extent overlaps
    ``t_range`` (closed-interval overlap); identity when unrestricted."""
    if t_range is None:
        return mask
    lo, hi = t_range
    return mask & (rows[:, t_a_col] >= lo) & (rows[:, t_d_col] <= hi)


def _unique_rows(rows: np.ndarray, return_inverse: bool = False):
    """``np.unique(rows, axis=0)`` via a column ``lexsort``.

    Same distinct rows in the same ascending lexicographic order — i.e.
    the historical ``sorted(set(tuples))`` §4.4 result ordering — but
    several times faster than numpy's structured-dtype sort on the
    ``(n, 4)`` float ident blocks of the query hot path.
    """
    n = rows.shape[0]
    # lexsort's last key is primary, so feed columns right-to-left
    order = np.lexsort(tuple(rows[:, c] for c in range(
        rows.shape[1] - 1, -1, -1
    )))
    s = rows[order]
    keep = np.empty(n, dtype=bool)
    keep[:1] = True
    np.any(s[1:] != s[:-1], axis=1, out=keep[1:])
    uniq = s[keep]
    if not return_inverse:
        return uniq
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(keep) - 1
    return uniq, inverse


def _check_order(rows: np.ndarray) -> None:
    """:class:`SegmentPair`'s boundary-order check over a whole ident
    matrix: a row with ``t_d > t_c`` or ``t_b > t_a`` raises the same
    :class:`~repro.errors.InvalidSegmentError`, whether or not its pair
    is ever built."""
    bad = (rows[:, 0] > rows[:, 1]) | (rows[:, 2] > rows[:, 3])
    if bad.any():
        SegmentPair(*rows[int(np.argmax(bad))].tolist())  # raises


def _union_dedup_rows(ident_blocks: Sequence[np.ndarray]) -> np.ndarray:
    """THE Section 4.4 union/dedup: the distinct ident rows, sorted and
    order-checked — the ``rows`` of a :class:`QueryOutcome`."""
    uniq = _unique_rows(np.vstack([np.empty((0, 4)), *ident_blocks]))
    _check_order(uniq)
    return uniq


def _grid_matrix(blocks: Sequence[np.ndarray]):
    """One grid's distinct-row matrix: the rows of ``blocks``
    deduplicated once, sorted and order-checked, and each block's
    ``inverse`` ids into it.  The sort is lexicographic, so ascending
    ids are the §4.4 result order."""
    uniq, inverse = _unique_rows(
        np.vstack([np.empty((0, 4)), *blocks]), return_inverse=True
    )
    _check_order(uniq)
    ends = np.cumsum([b.shape[0] for b in blocks], dtype=np.intp)
    return uniq, np.split(inverse, ends[:-1])


def _bitmap(n: int, id_blocks) -> np.ndarray:
    """The distinct ids among ``id_blocks`` (each below ``n``), ascending:
    one bool mask over the matrix instead of a sort per cell."""
    hit = np.zeros(n, dtype=bool)
    for ids in id_blocks:
        hit[ids] = True
    return np.flatnonzero(hit)


class _PairPool:
    """The :class:`SegmentPair` objects of one ident matrix, shared by the
    grid cells that select rows of it: row ``j`` becomes one object, built
    the first time a cell whose pairs are read selects it.  Cells may be
    read from several threads, hence the lock."""

    __slots__ = ("rows", "_objs", "_built", "_lock")

    def __init__(self, rows: np.ndarray) -> None:
        self.rows = rows
        self._objs = np.empty(rows.shape[0], dtype=object)
        self._built = np.zeros(rows.shape[0], dtype=bool)
        self._lock = threading.Lock()

    def take(self, ids: np.ndarray) -> List[SegmentPair]:
        """The pairs of rows ``ids`` (ascending ids give §4.4 order)."""
        with self._lock:
            new = ids[~self._built[ids]]
            if new.shape[0]:
                self._objs[new] = pairs_of(self.rows[new])
                self._built[new] = True
            return self._objs[ids].tolist()


@dataclass(frozen=True, eq=False)
class _Pick:
    """A grid cell's answer as rows ``ids`` of ``pool``'s matrix (the
    cell's ``pairs_from``): the partitioned gather maps the ids into its
    own grid matrix instead of deduplicating the cell's rows again."""

    pool: _PairPool
    ids: np.ndarray

    def __call__(self) -> List[SegmentPair]:
        return self.pool.take(self.ids)


def execute(
    plan: QueryPlan,
    store,
    cache: str = "warm",
    data=None,
    pushdown: bool = True,
    guard: Optional[QueryGuard] = None,
) -> QueryOutcome:
    """Run one plan against ``store``.

    ``data`` supplies the raw series (or approximation signal) a
    ``RefineOp`` refines against; ``pushdown=False`` forces the
    primitives to return raw candidates (used by EXPLAIN to report true
    candidate counts).  A ``guard`` makes execution cooperative: loops
    check its deadline, and a mid-flight
    :class:`~repro.errors.QueryTimeout` leaves carrying the partial
    pairs of the operators that *did* finish — after a timed-out refine,
    the full candidate set, a superset of the refined answer by
    Theorem 1.
    """
    pop, lop = plan.point_op, plan.line_op
    ident_blocks: List[np.ndarray] = []

    try:
        with span("op.point_range") as ps:
            if guard is not None:
                guard.start_op("point_range")
            prows = _fetch_block(
                store, "points", pop.access, pop.kind, pop.t_threshold,
                pop.v_threshold, cache, pushdown, guard,
            )
            pmask = point_mask(
                pop.kind, prows[:, 0], prows[:, 1],
                pop.t_threshold, pop.v_threshold,
            )
            pmask = _t_range_mask(pmask, prows, plan.t_range, 2, 5)
            p_fetched, p_matched = int(prows.shape[0]), int(pmask.sum())
            ps.set_attribute("access", pop.access)
            ps.set_attribute("rows_fetched", p_fetched)
            ps.set_attribute("rows_matched", p_matched)
            obs_context.account(
                operator="point_range",
                candidate_shape=(p_fetched, _POINT_WIDTH),
                rows_fetched=p_fetched, rows_matched=p_matched,
            )
            ident_blocks.append(prows[pmask][:, 2:6])
            if guard is not None:
                guard.finish_op("point_range")
        with span("op.line_cross") as ls:
            if guard is not None:
                guard.start_op("line_cross")
            lrows = _fetch_block(
                store, "lines", lop.access, lop.kind, lop.t_threshold,
                lop.v_threshold, cache, pushdown, guard,
            )
            lmask = line_mask(lop.kind, *lrows[:, :4].T,
                              lop.t_threshold, lop.v_threshold)
            lmask = _t_range_mask(lmask, lrows, plan.t_range, 4, 7)
            l_fetched, l_matched = int(lrows.shape[0]), int(lmask.sum())
            ls.set_attribute("access", lop.access)
            ls.set_attribute("rows_fetched", l_fetched)
            ls.set_attribute("rows_matched", l_matched)
            obs_context.account(
                operator="line_cross",
                candidate_shape=(l_fetched, _LINE_WIDTH),
                rows_fetched=l_fetched, rows_matched=l_matched,
            )
            ident_blocks.append(lrows[lmask][:, 4:8])
            if guard is not None:
                guard.finish_op("line_cross")
        with span("op.union_dedup") as us:
            rows = _union_dedup_rows(ident_blocks)
            us.set_attribute("pairs", rows.shape[0])
    except QueryTimeout as exc:
        # hand back whatever the finished operators produced
        exc.attach(
            partial_pairs=pairs_of(_union_dedup_rows(ident_blocks)),
            completeness=(
                guard.report("deadline exceeded") if guard is not None
                else None
            ),
        )
        raise

    _ROWS_FETCHED["point_range"].inc(p_fetched)
    _ROWS_MATCHED["point_range"].inc(p_matched)
    _ROWS_FETCHED["line_cross"].inc(l_fetched)
    _ROWS_MATCHED["line_cross"].inc(l_matched)

    stats = [
        OperatorStats(
            "point_range", pop.table, pop.access, p_fetched, p_matched,
        ),
        OperatorStats(
            "line_cross", lop.table, lop.access, l_fetched, l_matched,
        ),
    ]
    result = QueryOutcome(rows=rows, op_stats=stats)
    if plan.refine_op is not None:
        if data is None:
            raise ValueError("plan has a RefineOp but no data was supplied")
        pairs = result.pairs
        try:
            with span("op.refine") as rs:
                if guard is not None:
                    guard.start_op("refine")
                result.hits = rank_hits(
                    pairs, data, plan.query,
                    verified_only=plan.refine_op.verified_only,
                    guard=guard,
                )
                rs.set_attribute("candidates", len(pairs))
                rs.set_attribute("kept", len(result.hits))
                if guard is not None:
                    guard.finish_op("refine")
        except QueryTimeout as exc:
            exc.attach(
                partial_pairs=pairs,
                completeness=(
                    guard.report("refine unfinished") if guard is not None
                    else None
                ),
            )
            raise
        _REFINE_CANDIDATES.inc(len(pairs))
        _REFINE_KEPT.inc(len(result.hits))
    return result


def execute_batch(
    plans: Sequence[QueryPlan],
    store,
    cache: str = "warm",
    guard: Optional[QueryGuard] = None,
) -> List[QueryOutcome]:
    """Answer many queries in one shared pass per operator.

    Plans are grouped by search kind; per group the point and line
    candidates are fetched **once** (for the widest ``T`` when every
    plan probes the index, otherwise via one sequential scan) and every
    query is answered with vectorized masks over the shared arrays.
    This replaces one store round-trip per query with one per operator —
    the (T, V)-grid fast path.

    Store failures are isolated per kind group: a fetch that raises
    :class:`~repro.errors.StorageError`/``OSError`` marks only that
    group's cells :attr:`ResultStatus.FAILED` (cause in ``error``) and
    the rest of the grid still returns.  A
    :class:`~repro.errors.QueryTimeout` aborts the whole batch — the
    deadline covers the batch, not one cell.  The candidates of every
    group that fetched form one distinct-row matrix; the cells of both
    kinds select rows of it and share one pair per row.
    """
    results: List[Optional[QueryOutcome]] = [None] * len(plans)
    by_kind: Dict[str, List[int]] = {}
    for i, plan in enumerate(plans):
        by_kind.setdefault(plan.kind, []).append(i)

    fetched = []  # (kind, idxs, point access, line access, prows, lrows)
    for kind, idxs in by_kind.items():
        group = [plans[i] for i in idxs]
        # the shared fetch, no pushdown: one index probe for the widest T
        # when every plan probes the index, otherwise one full scan
        t_max = max(p.query.t_threshold for p in group)
        point_access = "index" if all(
            p.point_op.access == "index" for p in group) else "scan"
        line_access = "index" if all(
            p.line_op.access == "index" for p in group) else "scan"
        try:
            with span("op.point_range.fetch") as ps:
                prows = _fetch_block(
                    store, "points", point_access, kind, t_max, None,
                    cache, False, guard,
                )
                ps.set_attribute("kind", kind)
                ps.set_attribute("rows_fetched", int(prows.shape[0]))
            with span("op.line_cross.fetch") as ls:
                lrows = _fetch_block(
                    store, "lines", line_access, kind, t_max, None,
                    cache, False, guard,
                )
                ls.set_attribute("kind", kind)
                ls.set_attribute("rows_fetched", int(lrows.shape[0]))
        except QueryTimeout as exc:
            if guard is not None:
                exc.attach(completeness=guard.report("deadline exceeded"))
            raise
        except (StorageError, OSError) as exc:
            # one failing group must not abort the whole (T, V) grid
            report = CompletenessReport(
                unfinished=(f"{kind}.point_range", f"{kind}.line_cross"),
                reason=f"store failure for kind {kind!r}: {exc}",
            )
            for i in idxs:
                results[i] = QueryOutcome(status=ResultStatus.FAILED,
                                          completeness=report, error=exc)
            continue
        # fetched once per group — counted once, not once per query
        for op, rows, width in (("point_range", prows, _POINT_WIDTH),
                                ("line_cross", lrows, _LINE_WIDTH)):
            _ROWS_FETCHED[op].inc(int(rows.shape[0]))
            obs_context.account(operator=op, rows_fetched=int(rows.shape[0]),
                                candidate_shape=(int(rows.shape[0]), width))
        fetched.append((kind, idxs, point_access, line_access, prows, lrows))

    # One distinct-row matrix for the whole call, deduplicated once: each
    # cell selects its rows by a bitmap over the matrix's ids instead of
    # sorting per query, and the sort makes ascending ids the §4.4 order.
    uniq, inverses = _grid_matrix([
        block for _, _, _, _, prows, lrows in fetched
        for block in (prows[:, 2:6], lrows[:, 4:8])
    ])
    pool = _PairPool(uniq)
    for g, (kind, idxs, point_access, line_access, prows, lrows) in (
            enumerate(fetched)):
        inv_p, inv_l = inverses[2 * g:2 * g + 2]
        for i in idxs:
            if guard is not None:
                guard.tick()
            plan = plans[i]
            t_thr, v_thr = plan.query.t_threshold, plan.query.v_threshold
            pmask = point_mask(kind, prows[:, 0], prows[:, 1], t_thr, v_thr)
            pmask = _t_range_mask(pmask, prows, plan.t_range, 2, 5)
            lmask = line_mask(kind, *lrows[:, :4].T, t_thr, v_thr)
            lmask = _t_range_mask(lmask, lrows, plan.t_range, 4, 7)
            sel = _bitmap(uniq.shape[0], (inv_p[pmask], inv_l[lmask]))
            p_matched, l_matched = int(pmask.sum()), int(lmask.sum())
            _ROWS_MATCHED["point_range"].inc(p_matched)
            _ROWS_MATCHED["line_cross"].inc(l_matched)
            obs_context.account(operator="point_range",
                                rows_matched=p_matched)
            obs_context.account(operator="line_cross",
                                rows_matched=l_matched)
            results[i] = QueryOutcome(
                rows=uniq[sel],
                pairs_from=_Pick(pool, sel),
                op_stats=[
                    OperatorStats(
                        "point_range", f"{kind}_points", point_access,
                        int(prows.shape[0]), p_matched,
                    ),
                    OperatorStats(
                        "line_cross", f"{kind}_lines", line_access,
                        int(lrows.shape[0]), l_matched,
                    ),
                ],
            )
    # every plan index belongs to exactly one kind group, so all slots
    # are filled
    return results  # type: ignore[return-value]


# ---------------------------------------------------------------------- #
# scatter–gather (time partitions of one stream, shards of a transect)
# ---------------------------------------------------------------------- #
#
# The §4.4 answer is a set union, so matches(∪ children) = ∪ matches(child)
# whatever the children are.  A child is an id, a routing predicate its
# owner evaluates before the scatter (a skipped child can contribute no
# matching pair) and a ``run``; the union reproduces the single-store
# answer bit for bit because the dedup sort order of
# :func:`_union_dedup_rows` is total and content-determined.


def _scatter(
    labels: Sequence[str],
    children: Sequence,
    run: Callable,
    scatter_span: str,
    scope: str,
    child_span: Optional[str] = None,
    **attrs,
) -> List:
    """THE scatter loop: ``run(child)`` per child, aligned with ``children``.

    Children run inline on the caller's thread, each under the
    accounting scope ``scope=label`` (``"shard"`` or ``"partition"``)
    and, when ``child_span`` names one, its own span.  The caller's
    query context and span stack stay bound throughout, so every child
    span parents on the scatter span by the ordinary stack — one
    connected trace tree per query.  A child that raises
    :class:`QueryTimeout`, :class:`StorageError` or ``OSError`` is
    *lost*: its slot holds the exception for :func:`_gather` to name.
    """
    with span(scatter_span) as ss:
        for key, value in attrs.items():
            ss.set_attribute(key, value)

        def call(label, child):
            try:
                with obs_context.bind_scope(**{scope: label}):
                    if child_span is None:
                        return run(child)
                    with span(child_span) as cs:
                        cs.set_attribute(scope, label)
                        return run(child)
            except (QueryTimeout, StorageError, OSError) as exc:
                return exc

        return [call(*lc) for lc in zip(labels, children)]


def _verdict(
    labels: Sequence[str], results: Sequence, noun: str
) -> Tuple[QueryOutcome, List[QueryOutcome]]:
    """THE verdict over one scatter: name the lost, keep the survivors.

    ``results[i]`` is child ``labels[i]``'s :class:`QueryOutcome` or the
    exception that lost it (a FAILED answer counts as lost, its
    ``error`` as the cause).  Nothing lost and nothing degraded is
    COMPLETE; something lost or degraded is DEGRADED (the union of the
    survivors is honest but incomplete); everything lost is FAILED.  The
    report names finished and lost children by id.  Returns that
    outcome, its rows not yet merged, and the survivors.
    """
    ok: List[str] = []
    lost: List[str] = []
    survivors: List[QueryOutcome] = []
    degraded = False
    error: Optional[BaseException] = None
    for label, result in zip(labels, results):
        raised = isinstance(result, BaseException)
        if raised or result.status is ResultStatus.FAILED:
            lost.append(label)
            error = result if raised else result.error
            continue
        ok.append(label)
        degraded = degraded or result.status is ResultStatus.DEGRADED
        survivors.append(result)
    if not lost and not degraded:
        status = ResultStatus.COMPLETE
        reason = "" if ok else f"no {noun} overlaps the predicate"
    elif not ok:
        status = ResultStatus.FAILED
        reason = f"every routed {noun} failed"
    else:
        status = ResultStatus.DEGRADED
        if lost:
            reason = f"lost {noun}(s): {', '.join(lost)}"
            record_degraded(noun)
        else:
            reason = f"{noun} answered degraded"
    merged = QueryOutcome(
        status=status, error=error,
        completeness=CompletenessReport(tuple(ok), tuple(lost), reason),
    )
    return merged, survivors


def _gather(labels: Sequence[str], results: Sequence, noun: str) -> QueryOutcome:
    """The :func:`_verdict` of one query's scatter, its ``rows`` the
    union of the survivors' rows."""
    merged, survivors = _verdict(labels, results, noun)
    merged.rows = _union_dedup_rows([r.rows for r in survivors])
    return merged


# A partition is anything exposing ``store``, ``overlaps_time(t_range)``
# and (optionally) ``read_lock`` — a lock held around every read, planning
# included (a cost-model sample scans the table through the same buffer
# pool), on backends whose concurrent reads are unsafe.  ``overlaps_time``
# tests the partition's *feature* extent (min t_d .. max t_a over stored
# rows), which is what makes pruning sound.


def _partition_id(part, i: int) -> str:
    """A stable label for one partition (duck-typed partitions get an
    index-based one)."""
    pid = getattr(part, "partition_id", None)
    return str(pid) if pid is not None else f"part{i}"


def _scatter_partitions(
    partitions: Sequence, t_range, run: Callable, **attrs
) -> Tuple[List[str], List, int]:
    """Prune by feature-time bounds, then scatter ``run`` inline over
    the survivors, each under its read lock: ``(ids, results, pruned)``."""
    kept = [p for p in partitions if p.overlaps_time(t_range)]
    pruned = len(partitions) - len(kept)
    _PARTITIONS_SCANNED.inc(len(kept))
    if pruned:
        _PARTITIONS_PRUNED.inc(pruned)
    obs_context.account(partitions_scanned=len(kept),
                        partitions_pruned=pruned)

    def locked(part):
        lock = getattr(part, "read_lock", None)
        with lock if lock is not None else nullcontext():
            return run(part)

    labels = [_partition_id(p, i) for i, p in enumerate(kept)]
    results = _scatter(
        labels, kept, locked, "op.partition_scatter", "partition",
        child_span="partition.execute",
        partitions=len(partitions), pruned=pruned, **attrs,
    )
    return labels, results, pruned


def _gather_partitions(
    merged: QueryOutcome, labels: Sequence[str], results: Sequence,
    pruned: int, kind: Optional[str] = None,
) -> QueryOutcome:
    """Complete the gathered outcome ``merged`` of a partition scatter:
    per-operator row counts summed over the partitions that answered
    (``kind`` names the tables when none did) and the partition counts."""
    stats = [
        s for r in results if isinstance(r, QueryOutcome)
        for s in r.op_stats
    ]
    if kind is None and stats:
        kind = stats[0].table.rsplit("_", 1)[0]
    operators = (("point_range", "points"), ("line_cross", "lines"))
    for op, group in operators if kind is not None else ():
        mine = [s for s in stats if s.operator == op]
        accesses = sorted({s.access for s in mine})
        merged.op_stats.append(
            OperatorStats(
                operator=op,
                table=f"{kind}_{group}",
                access="+".join(accesses) if accesses else "none",
                rows_fetched=sum(s.rows_fetched for s in mine),
                rows_matched=sum(s.rows_matched for s in mine),
            )
        )
    merged.partitions_scanned = len(labels)
    merged.partitions_pruned = pruned
    return merged


def execute_partitioned(
    query,
    make_plan: Callable,
    partitions: Sequence,
    t_range=None,
    cache: str = "warm",
    data=None,
    verified_only: bool = False,
    pushdown: bool = True,
    guard: Optional[QueryGuard] = None,
) -> QueryOutcome:
    """Run one query across a set of time partitions and merge.

    Partitions whose feature-time bounds miss ``t_range`` are pruned
    without touching their stores; the survivors are executed with
    ``make_plan(partition)`` (re-threaded with ``t_range``, refine
    stripped — refinement runs once over the merged pairs) and their
    answers are unioned with the standard dedup ordering, so the result
    is identical to executing against one store holding all partitions'
    rows.  A partition that fails is lost, not fatal: the result is
    then DEGRADED (FAILED when every partition was lost) and its
    completeness report names the lost partitions — see :func:`_gather`.
    """
    def run(part):
        plan = replace(make_plan(part), t_range=t_range, refine_op=None)
        return execute(plan, part.store, cache=cache, pushdown=pushdown,
                       guard=guard)

    labels, results, pruned = _scatter_partitions(partitions, t_range, run)
    merged = _gather(labels, results, "partition")
    _gather_partitions(merged, labels, results, pruned, query.kind)
    if data is not None:
        with span("op.refine") as rs:
            # the pairs are built once, from the merged matrix
            merged.hits = rank_hits(
                merged.pairs, data, query,
                verified_only=verified_only, guard=guard,
            )
            rs.set_attribute("candidates", len(merged.pairs))
            rs.set_attribute("kept", len(merged.hits))
        _REFINE_CANDIDATES.inc(len(merged.pairs))
        _REFINE_KEPT.inc(len(merged.hits))
    return merged


def _pick_of(cell: QueryOutcome) -> _Pick:
    """``cell``'s rows as ids over its grid's matrix; a cell that
    :func:`execute_batch` did not make is its own matrix."""
    if isinstance(cell.pairs_from, _Pick):
        return cell.pairs_from
    return _Pick(_PairPool(cell.rows), np.arange(cell.rows.shape[0]))


def execute_batch_partitioned(
    make_plans: Callable,
    partitions: Sequence,
    n_queries: int,
    t_range=None,
    cache: str = "warm",
    guard: Optional[QueryGuard] = None,
) -> List[QueryOutcome]:
    """Scatter a whole query grid across partitions and merge per cell.

    Each surviving partition answers the grid through
    :func:`execute_batch` (one shared candidate fetch per kind, the
    existing fast path); cell ``i`` of the returned list takes the
    :func:`_verdict` over cell ``i`` of every partition.  Per-partition
    failures stay isolated: a cell that failed on *some* partitions but
    succeeded on others comes back DEGRADED (merged pairs are
    honest-but-incomplete, the report names the lost partitions); a cell
    that failed everywhere is FAILED.  The partitions' matrices are
    unioned once per grid, each cell's rows are a bitmap over the
    union's ids, and each distinct row is one pair, built on first read.
    """
    def run(part):
        plans = [
            replace(p, t_range=t_range, refine_op=None)
            for p in make_plans(part)
        ]
        return execute_batch(plans, part.store, cache=cache, guard=guard)

    labels, per_partition, pruned = _scatter_partitions(
        partitions, t_range, run, queries=n_queries
    )
    cells: List[QueryOutcome] = []
    picks: List[List[_Pick]] = []
    for i in range(n_queries):
        col = [r if isinstance(r, BaseException) else r[i]
               for r in per_partition]
        cell, survivors = _verdict(labels, col, "partition")
        cells.append(_gather_partitions(cell, labels, col, pruned))
        picks.append([_pick_of(r) for r in survivors])
    # One union per grid: the distinct-row matrix of each partition that
    # answered enters it once, and ``to_grid`` maps its ids into the
    # grid's; each cell is then a bitmap over the grid's ids.
    pools = list(dict.fromkeys(p.pool for ps in picks for p in ps))
    uniq, inverses = _grid_matrix([pool.rows for pool in pools])
    to_grid = dict(zip(pools, inverses))
    pool = _PairPool(uniq)
    for cell, cell_picks in zip(cells, picks):
        sel = _bitmap(uniq.shape[0],
                      (to_grid[p.pool][p.ids] for p in cell_picks))
        cell.rows, cell.pairs_from = uniq[sel], _Pick(pool, sel)
    return cells

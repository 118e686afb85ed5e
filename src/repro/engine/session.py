"""Read-only, thread-safe query sessions with batching and EXPLAIN.

:class:`QuerySession` is the front door of the query engine: every
caller — ``SegDiffIndex``, ``TieredIndex``, each shard of a
``ShardedIndex``, the experiments, the CLI — routes searches through
one of these.  A session
owns a :class:`~repro.engine.cost.CostModel` for ``mode="auto"`` plan
choice, serializes access to backends whose reads are not thread-safe
(MiniDB's buffer pool), and exposes:

* :meth:`search` — one query, any mode, optional witness refinement;
* :meth:`search_batch` — a whole (T, V) grid in one shared pass per
  operator (the Figures 16-24 workload);
* :meth:`explain` — the chosen plan with estimated vs actual row counts
  (and pages read on MiniDB).
"""

from __future__ import annotations

import logging
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import InvalidParameterError, QueryTimeout
from ..obs import context as obs_context
from ..obs import recorder as flight
from ..obs.metrics import QUERY_LATENCY_BUCKETS, REGISTRY, ROWS_BUCKETS
from ..obs.tracing import span
from ..types import SegmentPair
from .cost import CostModel
from .executor import execute, execute_batch
from .plan import Query, QueryPlan, RefineOp
from .resilience import (
    Deadline,
    QueryGuard,
    QueryOutcome,
    ResultStatus,
    record_timeout,
)

__all__ = ["QuerySession", "OperatorExplain", "ExplainReport"]

logger = logging.getLogger("repro.engine")

_MODES = ("auto", "index", "scan", "grid")

#: Every query API an envelope reports under: one store, the live tier's
#: partition scatter, the sharded fan-out.
_APIS = ("search", "search_batch", "explain", "live_search",
         "live_search_batch", "shard_search")

_QUERIES = {
    api: REGISTRY.counter(
        "repro_engine_queries_total",
        "Queries answered, per query API", {"api": api},
    )
    for api in _APIS
}
_QUERY_SECONDS = {
    api: REGISTRY.histogram(
        "repro_query_seconds",
        "End-to-end query latency per query API", {"api": api},
        buckets=QUERY_LATENCY_BUCKETS,
    )
    for api in _APIS
}
_QUERY_PAIRS = REGISTRY.histogram(
    "repro_query_pairs", "Distinct pairs returned per query",
    buckets=ROWS_BUCKETS,
)
_SLOW_QUERIES = REGISTRY.counter(
    "repro_query_slow_total",
    "Queries exceeding the slow-query threshold",
)


def _deadline_guard(timeout_ms: Optional[float]) -> Optional[QueryGuard]:
    """The per-query deadline guard; ``None`` without a timeout, which
    keeps the executor on its guard-free path."""
    if timeout_ms is None:
        return None
    return QueryGuard(Deadline.from_timeout_ms(timeout_ms))


class QueryEnvelope:
    """THE wrapper around one query, whatever tier answers it::

        with QueryEnvelope("search", backend) as env:
            ...                     # run under env.ctx
            env.done(plan.describe, n_pairs, status, op_stats)

    Entering adopts the diagnostics context already bound on this thread
    (a shard of a fan-out, ``segdiff debug``) or opens and binds a new one —
    whoever opened it *owns* the tail-retention decision.  :meth:`done`
    counts the query, times it and records a ``slow_query`` event when
    it took at least the process-wide threshold
    (``repro.obs.set_default_threshold``).  Leaving, the owner records
    the query's ``trace`` only when it was slow, unhealthy, or left by
    an exception (timed out, failed), and always clears the context's
    parked roots.
    """

    def __init__(self, api: str, backend: str) -> None:
        self.api = api
        self.backend = backend
        self._retain = False

    def __enter__(self) -> "QueryEnvelope":
        self.ctx = obs_context.current_context()
        self._binder = None
        if self.ctx is None:
            self.ctx = obs_context.new_context(api=self.api)
            self._binder = obs_context.use_context(self.ctx)
            self._binder.__enter__()
        self._t0 = time.perf_counter()
        return self

    def done(self, describe: Callable[[], str], n_pairs: int,
             status: str = "complete", op_stats=(),
             partitions_scanned: Optional[int] = None,
             partitions_pruned: Optional[int] = None) -> None:
        """Record the answered query's telemetry (``describe()`` names
        the executed plan; only a slow query pays for the string)."""
        seconds = time.perf_counter() - self._t0
        _QUERIES[self.api].inc()
        _QUERY_SECONDS[self.api].observe(seconds)
        _QUERY_PAIRS.observe(n_pairs)
        threshold = flight.default_threshold()
        slow = threshold is not None and seconds >= threshold
        self._retain = slow or status != "complete"
        if not slow:
            return
        _SLOW_QUERIES.inc()
        plan = describe()
        acct = self.ctx.accounting.to_dict()
        flight.record(
            "slow_query", self.api,
            backend=self.backend,
            duration_ms=round(seconds * 1e3, 3),
            threshold_ms=round(threshold * 1e3, 3),
            plan=plan,
            n_pairs=n_pairs,
            operators=[s.to_dict() for s in op_stats],
            status=status,
            partitions_scanned=partitions_scanned,
            partitions_pruned=partitions_pruned,
            shards=acct["breakdown"],
            accounting={
                "totals": acct["totals"],
                "candidate_matrices": acct["candidate_matrices"],
            },
        )
        logger.warning(
            "slow query: api=%s backend=%s duration=%.1fms "
            "threshold=%.1fms pairs=%d plan=%s",
            self.api, self.backend, seconds * 1e3, threshold * 1e3,
            n_pairs, plan,
        )

    def done_batch(self, describe: Callable[[], str],
                   results: Sequence[QueryOutcome], **parts) -> None:
        """:meth:`done` for a grid: pairs summed, the worst cell's status."""
        statuses = {r.status for r in results}
        worst = next(
            (s for s in (ResultStatus.FAILED, ResultStatus.DEGRADED)
             if s in statuses),
            ResultStatus.COMPLETE,
        )
        self.done(describe, sum(r.rows.shape[0] for r in results),
                  worst.value, **parts)

    def stamp(self, results: List[QueryOutcome]) -> List[QueryOutcome]:
        """Attach the query's id and accounting to its outcomes; an
        unhealthy one also gets the flight recorder's recent tail."""
        unhealthy = [
            r for r in results if r.status is not ResultStatus.COMPLETE
        ]
        tail = flight.RECORDER.tail_dicts(32) if unhealthy else None
        for r in results:
            r.query_id = self.ctx.query_id
            r.accounting = self.ctx.accounting
        for r in unhealthy:
            r.recorder_tail = tail
        return results

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._binder is None:
            return
        if self._retain or exc_type is not None:
            for root in self.ctx.trace_roots:
                flight.record("trace", root.name, **root.to_dict())
        del self.ctx.trace_roots[:]
        self._binder.__exit__(exc_type, exc, tb)


@dataclass(frozen=True)
class OperatorExplain:
    """EXPLAIN line for one physical operator."""

    operator: str
    table: str
    access: str
    estimated_rows: int
    actual_rows: int
    rows_fetched: int


@dataclass(frozen=True)
class ExplainReport:
    """The chosen plan plus estimated-vs-actual execution statistics."""

    backend: str
    plan: QueryPlan
    chosen_mode: str
    estimated_selectivity: float
    operators: List[OperatorExplain] = field(default_factory=list)
    n_pairs: int = 0
    pages_read: Optional[int] = None
    cache_hits: Optional[int] = None
    cache_misses: Optional[int] = None
    #: Diagnostics: the query's id and its resource-accounting snapshot
    #: (totals + per-operator/shard/partition breakdown).
    query_id: Optional[str] = None
    accounting: Optional[dict] = field(default=None, compare=False)

    def render(self) -> str:
        """Human-readable EXPLAIN output (the CLI's format)."""
        q = self.plan.query
        lines = [
            f"EXPLAIN {q.kind} search  T={q.t_threshold:g}s  "
            f"V={q.v_threshold:g}  [backend={self.backend}]",
            f"  summary mode: {self.chosen_mode}  "
            f"(estimated selectivity {self.estimated_selectivity:.4f})",
            "  └─ UnionDedupOp"
            + (f"  pairs={self.n_pairs}" if self.n_pairs is not None else ""),
        ]
        for i, op in enumerate(self.operators):
            branch = "├" if i < len(self.operators) - 1 else "└"
            lines.append(
                f"     {branch}─ {op.operator}({op.table})  "
                f"access={op.access}  est_rows={op.estimated_rows}  "
                f"actual_rows={op.actual_rows}  fetched={op.rows_fetched}"
            )
        if self.pages_read is not None:
            line = f"  pages read: {self.pages_read}"
            if self.cache_hits is not None:
                line += (
                    f"  (pool hits {self.cache_hits}, "
                    f"misses {self.cache_misses})"
                )
            lines.append(line)
        return "\n".join(lines)


class QuerySession:
    """A read-only query session over one feature store.

    Thread safety: sessions serialize store access with an internal lock
    unless the store declares ``THREAD_SAFE_READS = True`` (the memory
    store's frozen numpy arrays and the SQLite store's per-thread reader
    connections both do; MiniDB's shared buffer pool does not).
    """

    def __init__(
        self,
        store,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.store = store
        self.cost = cost_model if cost_model is not None else CostModel(store)
        self._lock: Optional[threading.Lock] = (
            None if getattr(store, "THREAD_SAFE_READS", False)
            else threading.Lock()
        )

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #

    def plan(
        self, query: Query, mode: str = "auto", t_range=None
    ) -> QueryPlan:
        """The plan :meth:`search` would execute for ``query``.

        ``t_range=(lo, hi)`` restricts results to pairs whose
        ``[t_d, t_a]`` extent overlaps the closed interval.
        """
        if mode not in _MODES:
            raise InvalidParameterError(
                f"mode must be one of {_MODES}, got {mode!r}"
            )
        return self.cost.plan(query, mode=mode, t_range=t_range)

    def invalidate(self) -> None:
        """Drop cached cost-model samples (the store grew)."""
        self.cost.invalidate()

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def _execute(self, plan: QueryPlan, cache: str, data,
                 pushdown: bool = True,
                 guard: Optional[QueryGuard] = None
                 ) -> Tuple[QueryOutcome, Optional[object]]:
        """Execute ``plan`` under the session lock: ``(outcome, delta)``.

        ``delta`` is the pager-stat difference across the run on stores
        that expose pager counters (``None`` otherwise); its page reads
        are charged to the query's accounting.  Both snapshots are taken
        inside the lock, so on serialized backends (MiniDB's shared
        buffer pool) the delta is exactly this execution's page traffic
        even while other sessions on the same store run.
        """
        stats = getattr(self.store, "pager_stats", None)
        with self._lock or nullcontext():
            before = stats().snapshot() if callable(stats) else None
            result = execute(plan, self.store, cache=cache, data=data,
                             pushdown=pushdown, guard=guard)
            delta = (
                stats().snapshot().delta(before) if before is not None
                else None
            )
        if delta is not None:
            obs_context.account(pages_read=delta.page_reads)
        return result, delta

    def _envelope(self, api: str) -> QueryEnvelope:
        return QueryEnvelope(api, getattr(self.store, "BACKEND", "unknown"))

    def search(
        self,
        query: Query,
        mode: str = "auto",
        cache: str = "warm",
        data=None,
        verified_only: bool = False,
        timeout_ms: Optional[float] = None,
        t_range=None,
    ) -> List[SegmentPair]:
        """Distinct segment pairs matching ``query`` (Section 4.4).

        When ``data`` is given the result is witness-refined: a list of
        :class:`~repro.core.results.SearchHit` ordered by severity.
        ``timeout_ms`` is this query's deadline: past it the search
        raises :class:`~repro.errors.QueryTimeout`.
        ``t_range=(lo, hi)`` keeps only pairs overlapping the interval.
        """
        outcome = self.search_outcome(
            query, mode=mode, cache=cache, data=data,
            verified_only=verified_only, timeout_ms=timeout_ms,
            t_range=t_range,
        )
        return outcome.results

    def search_outcome(
        self,
        query: Query,
        mode: str = "auto",
        cache: str = "warm",
        data=None,
        verified_only: bool = False,
        timeout_ms: Optional[float] = None,
        t_range=None,
    ) -> QueryOutcome:
        """Like :meth:`search`, returning the
        :class:`~repro.engine.resilience.QueryOutcome`: the pairs/hits
        plus ``status`` and diagnostics.  Raises
        :class:`~repro.errors.QueryTimeout` on a missed deadline; after
        a timed-out refine its ``partial_pairs`` hold every candidate.
        """
        guard = _deadline_guard(timeout_ms)
        refine = (
            RefineOp(verified_only=verified_only) if data is not None else None
        )
        with self._envelope("search") as env:
            try:
                with span("query.search") as root:
                    root.set_attribute("query_id", env.ctx.query_id)
                    shard, _ = obs_context.current_scope()
                    if shard is not None:
                        root.set_attribute("shard", shard)
                    with span("query.plan"):
                        plan = self.plan(query, mode=mode, t_range=t_range)
                    if refine is not None:
                        plan = QueryPlan(
                            query=plan.query,
                            point_op=plan.point_op,
                            line_op=plan.line_op,
                            refine_op=refine,
                            t_range=plan.t_range,
                        )
                    result, _ = self._execute(plan, cache, data,
                                              guard=guard)
                    root.set_attribute("backend", env.backend)
                    root.set_attribute("kind", query.kind)
                    root.set_attribute("pairs", result.rows.shape[0])
            except QueryTimeout:
                record_timeout()
                raise
            env.done(plan.describe, result.rows.shape[0],
                     result.status.value, result.op_stats)
        return env.stamp([result])[0]

    def search_batch(
        self,
        queries: Sequence[Query],
        mode: str = "auto",
        cache: str = "warm",
        timeout_ms: Optional[float] = None,
        t_range=None,
    ) -> List[List[SegmentPair]]:
        """Answer a whole grid of queries in one shared pass per operator.

        Results align with ``queries`` by position and are identical to
        ``[self.search(q, ...) for q in queries]``, but candidates are
        fetched once per (kind, operator) instead of once per query.
        If a kind group's store fetch failed, the first such error is
        re-raised (after the healthy groups completed); use
        :meth:`search_batch_outcomes` for per-cell failure isolation.
        """
        outcomes = self.search_batch_outcomes(
            queries, mode=mode, cache=cache, timeout_ms=timeout_ms,
            t_range=t_range,
        )
        for outcome in outcomes:
            if outcome.status is ResultStatus.FAILED:
                raise outcome.error
        return [outcome.pairs for outcome in outcomes]

    def search_batch_outcomes(
        self,
        queries: Sequence[Query],
        mode: str = "auto",
        cache: str = "warm",
        timeout_ms: Optional[float] = None,
        t_range=None,
    ) -> List[QueryOutcome]:
        """Batched search with per-cell resilience verdicts.

        A store failure in one kind group marks only that group's cells
        :attr:`ResultStatus.FAILED` (cause in ``error``); the rest of
        the grid returns COMPLETE.  A missed deadline still raises
        :class:`~repro.errors.QueryTimeout` — the deadline covers the
        whole batch.
        """
        if mode == "grid":
            raise InvalidParameterError(
                "batched execution supports 'auto', 'index' and 'scan'"
            )
        guard = _deadline_guard(timeout_ms)
        with self._envelope("search_batch") as env:
            try:
                with span("query.search_batch") as root:
                    root.set_attribute("query_id", env.ctx.query_id)
                    with span("query.plan"):
                        plans = [
                            self.plan(q, mode=mode, t_range=t_range)
                            for q in queries
                        ]
                    with self._lock or nullcontext():
                        results = execute_batch(plans, self.store,
                                                cache=cache, guard=guard)
                    root.set_attribute("queries", len(plans))
            except QueryTimeout:
                record_timeout()
                raise
            if plans:
                env.done_batch(plans[0].describe, results)
        return env.stamp(results)

    # ------------------------------------------------------------------ #
    # EXPLAIN
    # ------------------------------------------------------------------ #

    def explain(
        self, query: Query, mode: str = "auto", cache: str = "warm",
        t_range=None,
    ) -> ExplainReport:
        """Execute ``query`` and report the plan with est vs actual rows.

        Pushdown is disabled for the run so ``rows_fetched`` reports the
        true candidate-set size of each access path.
        """
        with self._envelope("explain") as env:
            with span("query.explain") as root:
                root.set_attribute("query_id", env.ctx.query_id)
                with span("query.plan"):
                    plan = self.plan(query, mode=mode, t_range=t_range)
                result, delta = self._execute(plan, cache, None,
                                              pushdown=False)
                root.set_attribute("kind", query.kind)
            env.done(plan.describe, result.rows.shape[0],
                     op_stats=result.op_stats)

        counts = self.store.counts()
        ops: List[OperatorExplain] = []
        for stat, op in zip(
            result.op_stats, (plan.point_op, plan.line_op)
        ):
            n = getattr(counts, op.table)
            if stat.operator == "point_range":
                est = int(
                    round(
                        n * self.cost.estimate_selectivity(
                            op.kind, op.t_threshold, op.v_threshold
                        )
                    )
                )
            else:
                sel_dt = self.cost.estimate_dt_selectivity(
                    op.kind, op.t_threshold
                )
                est = int(round(n * 0.1 * sel_dt))
            ops.append(
                OperatorExplain(
                    operator=stat.operator,
                    table=stat.table,
                    access=stat.access,
                    estimated_rows=est,
                    actual_rows=stat.rows_matched,
                    rows_fetched=stat.rows_fetched,
                )
            )
        return ExplainReport(
            backend=getattr(self.store, "BACKEND", "unknown"),
            plan=plan,
            chosen_mode=self.cost.choose_mode(
                query.kind, query.t_threshold, query.v_threshold
            ),
            estimated_selectivity=self.cost.estimate_selectivity(
                query.kind, query.t_threshold, query.v_threshold
            ),
            operators=ops,
            n_pairs=result.rows.shape[0],
            pages_read=delta.page_reads if delta is not None else None,
            cache_hits=delta.hits if delta is not None else None,
            cache_misses=delta.misses if delta is not None else None,
            query_id=env.ctx.query_id,
            accounting=env.ctx.accounting.to_dict(),
        )

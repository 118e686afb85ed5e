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

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import InvalidParameterError, QueryTimeout
from ..obs import context as obs_context
from ..obs import recorder as flight
from ..obs import slowlog
from ..obs.metrics import QUERY_LATENCY_BUCKETS, REGISTRY, ROWS_BUCKETS
from ..obs.tracing import retain_trace, span
from ..types import SegmentPair
from .cost import CostModel
from .executor import ExecutionResult, execute, execute_batch
from .plan import Query, QueryPlan, RefineOp
from .resilience import (
    Deadline,
    QueryGuard,
    QueryOutcome,
    ResiliencePolicy,
    ResultStatus,
    record_timeout,
)

__all__ = ["QuerySession", "OperatorExplain", "ExplainReport"]

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


class QueryEnvelope:
    """THE wrapper around one query, whatever tier answers it::

        with QueryEnvelope("search", backend) as env:
            ...                     # run under env.ctx
            env.done(plan.describe, n_pairs, status, op_stats)

    Entering adopts the diagnostics context already bound on this thread
    (a scatter worker, ``segdiff debug``) or opens and binds a new one —
    whoever opened it *owns* the tail-retention decision.  :meth:`done`
    counts the query, times it and feeds the slow-query log.  Leaving,
    the owner keeps the query's trace only when it was slow, unhealthy,
    or left by an exception (timed out, shed, failed), and always clears
    the context's parked roots.
    """

    def __init__(self, api: str, backend: str,
                 threshold: Optional[float] = None) -> None:
        self.api = api
        self.backend = backend
        #: Seconds at which the query counts as slow (``None``: the
        #: process-wide default of ``repro.obs.slowlog``).
        self.threshold = threshold
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
        threshold = self.threshold
        if threshold is None:
            threshold = slowlog.default_threshold()
        slow = threshold is not None and seconds >= threshold
        self._retain = slow or status != "complete"
        if not slow:
            return
        _SLOW_QUERIES.inc()
        acct = self.ctx.accounting.to_dict()
        slowlog.SLOW_QUERY_LOG.add(
            slowlog.SlowQueryRecord(
                api=self.api,
                backend=self.backend,
                duration_s=seconds,
                threshold_s=threshold,
                plan=describe(),
                n_pairs=n_pairs,
                operators=[s.to_dict() for s in op_stats],
                query_id=self.ctx.query_id,
                status=status,
                partitions_scanned=partitions_scanned,
                partitions_pruned=partitions_pruned,
                shards=acct["breakdown"],
                accounting={
                    "totals": acct["totals"],
                    "candidate_matrices": acct["candidate_matrices"],
                },
            )
        )

    def done_batch(self, describe: Callable[[], str],
                   results: Sequence[ExecutionResult], **parts) -> None:
        """:meth:`done` for a grid: pairs summed, the worst cell's status."""
        statuses = {r.status for r in results}
        worst = next(
            (s for s in (ResultStatus.FAILED, ResultStatus.DEGRADED)
             if s in statuses),
            ResultStatus.COMPLETE,
        )
        self.done(describe, sum(len(r.pairs) for r in results),
                  worst.value, **parts)

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._binder is not None:
            self._binder.__exit__(exc_type, exc, tb)
            if self._retain or exc_type is not None:
                for root in self.ctx.trace_roots:
                    retain_trace(root)
            del self.ctx.trace_roots[:]


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
        slow_query_threshold: Optional[float] = None,
        resilience: Optional[ResiliencePolicy] = None,
        name: Optional[str] = None,
    ) -> None:
        self.store = store
        self.cost = cost_model if cost_model is not None else CostModel(store)
        #: Seconds above which a query lands in the slow-query log; when
        #: None, the process-wide default (``repro.obs.slowlog``) applies.
        self.slow_query_threshold = slow_query_threshold
        self._lock: Optional[threading.Lock] = (
            None if getattr(store, "THREAD_SAFE_READS", False)
            else threading.Lock()
        )
        #: Distinguishes this session's breaker gauge from other
        #: sessions' in a multi-index process (a shard id, usually);
        #: defaults to the store's backend name.
        self.name = name
        #: Resilience configuration (docs/resilience.md); ``None`` keeps
        #: every mechanism off and the query path on its original code.
        self.resilience = resilience
        self._admission = (
            resilience.admission() if resilience is not None else None
        )
        self._breaker = (
            resilience.breaker(
                getattr(store, "BACKEND", "unknown"), name=name
            )
            if resilience is not None else None
        )

    # ------------------------------------------------------------------ #
    # resilience plumbing
    # ------------------------------------------------------------------ #

    def _make_guard(
        self, timeout_ms: Optional[float], degrade: Optional[str]
    ) -> Optional[QueryGuard]:
        """Build the per-query guard; ``None`` when nothing is enabled.

        Per-query ``timeout_ms``/``degrade`` override the session
        policy's defaults.  Returning ``None`` on the unconfigured path
        keeps the executor's original (guard-free) code running —
        resilience costs nothing unless asked for.
        """
        pol = self.resilience
        if timeout_ms is None and pol is not None:
            timeout_ms = pol.timeout_ms
        if degrade is None and pol is not None:
            degrade = pol.degrade
        if timeout_ms is None and degrade is None and self._breaker is None:
            return None
        deadline = (
            Deadline.from_timeout_ms(timeout_ms)
            if timeout_ms is not None else None
        )
        kwargs = {}
        if pol is not None:
            kwargs["check_every"] = pol.check_every
            kwargs["degrade_fraction"] = pol.degrade_fraction
            if pol.degrade_margin_ms is not None:
                kwargs["degrade_margin_s"] = pol.degrade_margin_ms / 1000.0
        return QueryGuard(
            deadline=deadline,
            degrade=degrade,
            breaker=self._breaker,
            **kwargs,
        )

    def _admit(self, guard: Optional[QueryGuard]):
        """Admission-control context; a no-op without a concurrency cap."""
        if self._admission is None:
            return nullcontext()
        return self._admission.admit(
            guard.deadline if guard is not None else None
        )

    @property
    def admission(self):
        """The session's :class:`AdmissionController`, if enabled."""
        return self._admission

    @property
    def breaker(self):
        """The session's :class:`CircuitBreaker`, if enabled."""
        return self._breaker

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
                 guard: Optional[QueryGuard] = None) -> ExecutionResult:
        if self._lock is None:
            return self._execute_accounted(plan, cache, data, pushdown,
                                           guard)
        with self._lock:
            return self._execute_accounted(plan, cache, data, pushdown,
                                           guard)

    def _execute_accounted(self, plan, cache, data, pushdown, guard):
        """Execute and attribute the pager-page delta to the query's
        resource accounting (on stores that expose pager counters)."""
        fn = getattr(self.store, "pager_stats", None)
        before = (
            fn().snapshot()
            if callable(fn) and obs_context.current_context() is not None
            else None
        )
        result = execute(plan, self.store, cache=cache, data=data,
                         pushdown=pushdown, guard=guard)
        if before is not None:
            delta = fn().snapshot().delta(before)
            obs_context.account(pages_read=delta.page_reads)
        return result

    def _execute_with_io(
        self, plan: QueryPlan, cache: str, data, pushdown: bool = True
    ) -> Tuple[ExecutionResult, Optional[object], Optional[object]]:
        """Execute with before/after pager-stat snapshots.

        Snapshots are taken *inside* the session lock, so on serialized
        backends (MiniDB's shared buffer pool) the delta attributes
        exactly this execution's page traffic even while other sessions
        on the same store run concurrently.
        """
        if self._lock is None:
            return self._run_with_io(plan, cache, data, pushdown)
        with self._lock:
            return self._run_with_io(plan, cache, data, pushdown)

    def _run_with_io(self, plan, cache, data, pushdown):
        before = self._io_stats()
        result = execute(plan, self.store, cache=cache, data=data,
                         pushdown=pushdown)
        after = self._io_stats()
        return result, before, after

    def _envelope(self, api: str) -> QueryEnvelope:
        return QueryEnvelope(
            api, getattr(self.store, "BACKEND", "unknown"),
            self.slow_query_threshold,
        )

    def search(
        self,
        query: Query,
        mode: str = "auto",
        cache: str = "warm",
        data=None,
        verified_only: bool = False,
        timeout_ms: Optional[float] = None,
        degrade: Optional[str] = None,
        t_range=None,
    ) -> List[SegmentPair]:
        """Distinct segment pairs matching ``query`` (Section 4.4).

        When ``data`` is given the result is witness-refined: a list of
        :class:`~repro.core.results.SearchHit` ordered by severity.
        ``timeout_ms``/``degrade`` override the session's resilience
        policy for this query; a degraded answer comes back as the
        candidate pairs (use :meth:`search_outcome` to see the flag).
        ``t_range=(lo, hi)`` keeps only pairs overlapping the interval.
        """
        outcome = self.search_outcome(
            query, mode=mode, cache=cache, data=data,
            verified_only=verified_only, timeout_ms=timeout_ms,
            degrade=degrade, t_range=t_range,
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
        degrade: Optional[str] = None,
        t_range=None,
    ) -> QueryOutcome:
        """Like :meth:`search`, returning the full resilience verdict.

        The :class:`~repro.engine.resilience.QueryOutcome` carries the
        pairs/hits plus ``status`` (COMPLETE or DEGRADED) and the
        completeness report of a degraded answer.  Raises
        :class:`~repro.errors.QueryTimeout` on a missed deadline and
        :class:`~repro.errors.QueryRejected` when admission control
        sheds the query.
        """
        guard = self._make_guard(timeout_ms, degrade)
        refine = (
            RefineOp(verified_only=verified_only) if data is not None else None
        )
        with self._envelope("search") as env, self._admit(guard):
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
                    result = self._execute(plan, cache, data, guard=guard)
                    root.set_attribute("backend", env.backend)
                    root.set_attribute("kind", query.kind)
                    root.set_attribute("pairs", len(result.pairs))
            except QueryTimeout:
                record_timeout()
                raise
            env.done(plan.describe, len(result.pairs),
                     result.status.value, result.op_stats)
        unhealthy = result.status is not ResultStatus.COMPLETE
        return QueryOutcome(
            pairs=result.pairs,
            hits=result.hits,
            status=result.status,
            completeness=result.completeness,
            ident_rows=result.ident_rows,
            query_id=env.ctx.query_id,
            accounting=env.ctx.accounting,
            recorder_tail=(
                flight.RECORDER.tail_dicts(32) if unhealthy else None
            ),
        )

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
            if outcome.failed:
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
        guard = self._make_guard(timeout_ms, None)
        with self._envelope("search_batch") as env, self._admit(guard):
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
        unhealthy = any(
            r.status is not ResultStatus.COMPLETE for r in results
        )
        tail = flight.RECORDER.tail_dicts(32) if unhealthy else None
        return [
            QueryOutcome(
                pairs=r.pairs,
                status=r.status,
                completeness=r.completeness,
                error=r.error,
                ident_rows=r.ident_rows,
                query_id=env.ctx.query_id,
                accounting=env.ctx.accounting,
                recorder_tail=(
                    tail if r.status is not ResultStatus.COMPLETE else None
                ),
            )
            for r in results
        ]

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
        with self._envelope("explain") as env, self._admit(None):
            with span("query.explain") as root:
                root.set_attribute("query_id", env.ctx.query_id)
                with span("query.plan"):
                    plan = self.plan(query, mode=mode, t_range=t_range)
                # snapshots and execution happen atomically under the session
                # lock — concurrent sessions on the same store can no longer
                # misattribute each other's pager traffic
                result, stats_before, stats_after = self._execute_with_io(
                    plan, cache, None, pushdown=False
                )
                root.set_attribute("kind", query.kind)
                pages_read = cache_hits = cache_misses = None
                if stats_before is not None and stats_after is not None:
                    delta = stats_after.delta(stats_before)
                    pages_read = delta.page_reads
                    cache_hits = delta.hits
                    cache_misses = delta.misses
                    obs_context.account(pages_read=pages_read)
            env.done(plan.describe, len(result.pairs),
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
            n_pairs=len(result.pairs),
            pages_read=pages_read,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            query_id=env.ctx.query_id,
            accounting=env.ctx.accounting.to_dict(),
        )

    def _io_stats(self):
        """A :class:`~repro.storage.minidb.pager.PagerStats` snapshot,
        on stores that expose pager counters; ``None`` otherwise."""
        fn = getattr(self.store, "pager_stats", None)
        return fn().snapshot() if callable(fn) else None

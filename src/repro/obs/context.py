"""Per-query diagnostic context: identity, scope, accounting.

A :class:`QueryContext` is the unit of end-to-end query diagnostics: it
carries a process-unique query id and a :class:`ResourceAccounting` that
every layer below contributes to (stores report rows scanned and bytes
decoded, the executor reports candidate-matrix shapes, the shared retry
loop reports retries and shard failover reports failovers).

A context is bound to the thread that runs the query
(:func:`use_context`).  Shards and partitions are scattered inline on
that thread, so the binding and the tracer's span stack reach every
layer without being handed anywhere, and each child's spans parent on
the scatter span by the ordinary stack.  :func:`bind_scope` narrows the
accounting scope around one child (the scatter binds each shard or
partition id) so contributions land in the right
``(operator, shard, partition)`` breakdown cell.

The module is stdlib-only and imported by the stores, so — like the
rest of ``repro.obs`` — it must never import from the rest of
``repro``.  :func:`account` on a thread with no bound context is a
single ``getattr`` returning immediately; always-on accounting stays
inside the observability overhead budget.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "ResourceAccounting",
    "QueryContext",
    "current_context",
    "current_scope",
    "new_context",
    "use_context",
    "bind_scope",
    "account",
]

_query_ids = itertools.count(1)

#: Accounting fields that sum as plain integers.
_COUNTER_FIELDS = (
    "rows_scanned",
    "rows_fetched",
    "rows_matched",
    "pages_read",
    "bytes_decoded",
    "retries",
    "failovers",
    "partitions_scanned",
    "partitions_pruned",
)

#: Cap on remembered candidate-matrix shapes (bounds memory on huge
#: grids; the count keeps totalling past the cap).
_MAX_SHAPES = 64


class ResourceAccounting:
    """Thread-safe per-query resource totals with a scoped breakdown.

    Totals are plain integer sums of every contribution; the breakdown
    keys each contribution by its ``(operator, shard, partition)`` scope
    (``None`` for unscoped levels), so by construction **totals equal
    the sum of the per-scope parts** — the invariant the diagnostics
    test suite holds under random fault schedules.
    """

    __slots__ = ("_lock", "totals", "breakdown", "candidate_shapes",
                 "candidate_matrices")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.totals: Dict[str, int] = {f: 0 for f in _COUNTER_FIELDS}
        #: ``(operator, shard, partition) -> {field -> sum}``
        self.breakdown: Dict[
            Tuple[Optional[str], Optional[str], Optional[str]],
            Dict[str, int],
        ] = {}
        #: ``(rows, width)`` of candidate matrices the executor built.
        self.candidate_shapes: List[Tuple[int, int]] = []
        self.candidate_matrices: int = 0

    def add(
        self,
        operator: Optional[str] = None,
        shard: Optional[str] = None,
        partition: Optional[str] = None,
        candidate_shape: Optional[Tuple[int, int]] = None,
        **fields: int,
    ) -> None:
        """Contribute ``fields`` to the totals and to the scope cell."""
        with self._lock:
            if candidate_shape is not None:
                self.candidate_matrices += 1
                if len(self.candidate_shapes) < _MAX_SHAPES:
                    self.candidate_shapes.append(
                        (int(candidate_shape[0]), int(candidate_shape[1]))
                    )
            if not fields:
                return
            key = (operator, shard, partition)
            cell = self.breakdown.get(key)
            if cell is None:
                cell = self.breakdown[key] = {}
            totals = self.totals
            for name, value in fields.items():
                v = int(value)
                totals[name] = totals.get(name, 0) + v
                cell[name] = cell.get(name, 0) + v

    # -- views ---------------------------------------------------------- #

    def total(self, field: str) -> int:
        with self._lock:
            return self.totals.get(field, 0)

    def scoped_sum(self, field: str) -> int:
        """The breakdown-side sum of ``field`` (equals :meth:`total`)."""
        with self._lock:
            return sum(
                cell.get(field, 0) for cell in self.breakdown.values()
            )

    def scopes(self) -> List[Tuple[Optional[str], Optional[str],
                                   Optional[str]]]:
        with self._lock:
            return list(self.breakdown)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly snapshot: totals plus the scope breakdown."""
        with self._lock:
            return {
                "totals": {
                    k: v for k, v in self.totals.items() if v
                },
                "candidate_matrices": self.candidate_matrices,
                "candidate_shapes": [
                    list(s) for s in self.candidate_shapes
                ],
                "breakdown": [
                    {
                        "operator": op,
                        "shard": shard,
                        "partition": part,
                        **fields,
                    }
                    for (op, shard, part), fields
                    in sorted(
                        self.breakdown.items(),
                        key=lambda kv: tuple(x or "" for x in kv[0]),
                    )
                ],
            }

    def render(self) -> str:
        """Human-readable accounting table (the ``segdiff debug`` view)."""
        snap = self.to_dict()
        lines = ["resource accounting:"]
        for k in _COUNTER_FIELDS:
            v = snap["totals"].get(k, 0)
            if v:
                lines.append(f"  {k}: {v}")
        if snap["candidate_matrices"]:
            shapes = ", ".join(
                f"{r}x{c}" for r, c in snap["candidate_shapes"][:8]
            )
            lines.append(
                f"  candidate_matrices: {snap['candidate_matrices']}"
                f"  [{shapes}{', ...' if snap['candidate_matrices'] > 8 else ''}]"
            )
        for cell in snap["breakdown"]:
            scope = " ".join(
                f"{k}={cell[k]}" for k in ("operator", "shard", "partition")
                if cell.get(k) is not None
            )
            fields = " ".join(
                f"{k}={v}" for k, v in cell.items()
                if k not in ("operator", "shard", "partition")
            )
            lines.append(f"  [{scope or 'query'}]  {fields}")
        return "\n".join(lines)


class QueryContext:
    """Identity + diagnostics carried by one query end to end.

    Spans record under a bound context even while process-wide tracing
    is off (tail-based retention: the owner decides at completion
    whether the trace is worth keeping).
    """

    __slots__ = ("query_id", "api", "accounting", "trace_roots")

    def __init__(
        self,
        api: str = "search",
        query_id: Optional[str] = None,
    ) -> None:
        self.query_id = (
            query_id if query_id is not None else f"q{next(_query_ids)}"
        )
        self.api = api
        self.accounting = ResourceAccounting()
        #: Roots finished under this context while global tracing is off
        #: (tail-retention candidates; the context owner keeps or drops).
        self.trace_roots: List[object] = []


class _Binding:
    """One thread's active context plus its accounting scope."""

    __slots__ = ("ctx", "shard", "partition")

    def __init__(self, ctx: QueryContext, shard: Optional[str],
                 partition: Optional[str]) -> None:
        self.ctx = ctx
        self.shard = shard
        self.partition = partition


_local = threading.local()


def _binding() -> Optional[_Binding]:
    return getattr(_local, "binding", None)


def current_context() -> Optional[QueryContext]:
    """The context bound on this thread, if any."""
    b = _binding()
    return b.ctx if b is not None else None


def current_scope() -> Tuple[Optional[str], Optional[str]]:
    """This thread's ``(shard, partition)`` accounting scope."""
    b = _binding()
    return (b.shard, b.partition) if b is not None else (None, None)


def new_context(api: str = "search") -> QueryContext:
    return QueryContext(api=api)


class use_context:
    """Bind ``ctx`` on this thread::

        with use_context(ctx):
            ...  # account()/span() contributions go to ctx

    Bindings nest; the previous binding is restored on exit.
    """

    __slots__ = ("_next", "_prev")

    def __init__(self, ctx: QueryContext) -> None:
        self._next = _Binding(ctx, None, None)
        self._prev: Optional[_Binding] = None

    def __enter__(self) -> QueryContext:
        self._prev = _binding()
        _local.binding = self._next
        return self._next.ctx

    def __exit__(self, *exc_info) -> None:
        _local.binding = self._prev


class bind_scope:
    """Narrow the current binding's scope (no-op without a context)::

        with bind_scope(partition="p000003"):
            execute(...)
    """

    __slots__ = ("_shard", "_partition", "_prev")

    def __init__(self, shard: Optional[str] = None,
                 partition: Optional[str] = None) -> None:
        self._shard = shard
        self._partition = partition
        self._prev: Optional[_Binding] = None

    def __enter__(self) -> None:
        prev = _binding()
        self._prev = prev
        if prev is None:
            return
        _local.binding = _Binding(
            prev.ctx,
            self._shard if self._shard is not None else prev.shard,
            self._partition if self._partition is not None
            else prev.partition,
        )

    def __exit__(self, *exc_info) -> None:
        if self._prev is not None or _binding() is not None:
            _local.binding = self._prev


def account(operator: Optional[str] = None,
            candidate_shape: Optional[Tuple[int, int]] = None,
            **fields: int) -> None:
    """Contribute to the current query's accounting, under the thread's
    scope.  A no-op (one attribute lookup) when no context is bound."""
    b = _binding()
    if b is None:
        return
    b.ctx.accounting.add(
        operator=operator, shard=b.shard, partition=b.partition,
        candidate_shape=candidate_shape, **fields,
    )

"""Logical query plans for the Section 4.4 drop/jump search.

A drop (jump) search is one fixed logical shape::

    UnionDedupOp
    ├── PointRangeOp   corner features inside the query region
    └── LineCrossOp    boundary edges crossing the region
    └── RefineOp       (optional) witness refinement against raw data

The *logical* operators carry the query thresholds and the chosen
*physical access path* (``scan`` / ``index`` / ``grid``); the executor
maps each operator onto the narrow block interface every
:class:`~repro.storage.base.FeatureStore` exposes (``scan_points_array``,
``probe_point_index_array``, ``scan_lines_array``,
``probe_line_index_array``).  Plan choice per operator lives in
:mod:`repro.engine.cost`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from ..core.queries import DropQuery, JumpQuery
from ..errors import InvalidParameterError

__all__ = [
    "Query",
    "PointRangeOp",
    "LineCrossOp",
    "UnionDedupOp",
    "RefineOp",
    "QueryPlan",
    "build_plan",
    "normalize_t_range",
    "POINT_ACCESS_PATHS",
    "LINE_ACCESS_PATHS",
]

Query = Union[DropQuery, JumpQuery]

#: Physical access paths a point operator may use.
POINT_ACCESS_PATHS = ("scan", "index", "grid")
#: Physical access paths a line operator may use (a grid cannot prune on
#: the crossing predicate's interpolated value).
LINE_ACCESS_PATHS = ("scan", "index")


def normalize_t_range(t_range) -> Optional[Tuple[float, float]]:
    """Validate a time-range restriction into a ``(lo, hi)`` float pair.

    A pair matches when its ``[t_d, t_a]`` extent overlaps ``[lo, hi]``
    (the event must *touch* the range, the standard interval-overlap
    semantics).  ``None`` means unrestricted.
    """
    if t_range is None:
        return None
    try:
        lo, hi = t_range
        lo, hi = float(lo), float(hi)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(
            f"t_range must be a (lo, hi) pair, got {t_range!r}"
        ) from exc
    if not (lo <= hi):
        raise InvalidParameterError(
            f"t_range must satisfy lo <= hi, got ({lo!r}, {hi!r})"
        )
    return (lo, hi)


@dataclass(frozen=True)
class PointRangeOp:
    """Point query: stored corners with ``Δt <= T`` and ``Δv`` past ``V``."""

    kind: str
    t_threshold: float
    v_threshold: float
    access: str = "index"

    def __post_init__(self) -> None:
        if self.kind not in ("drop", "jump"):
            raise InvalidParameterError(f"unknown query kind {self.kind!r}")
        if self.access not in POINT_ACCESS_PATHS:
            raise InvalidParameterError(
                f"point access must be one of {POINT_ACCESS_PATHS}, "
                f"got {self.access!r}"
            )

    @property
    def table(self) -> str:
        return f"{self.kind}_points"


@dataclass(frozen=True)
class LineCrossOp:
    """Line query: boundary edges crossing the region, both ends out."""

    kind: str
    t_threshold: float
    v_threshold: float
    access: str = "index"

    def __post_init__(self) -> None:
        if self.kind not in ("drop", "jump"):
            raise InvalidParameterError(f"unknown query kind {self.kind!r}")
        if self.access not in LINE_ACCESS_PATHS:
            raise InvalidParameterError(
                f"line access must be one of {LINE_ACCESS_PATHS}, "
                f"got {self.access!r}"
            )

    @property
    def table(self) -> str:
        return f"{self.kind}_lines"


@dataclass(frozen=True)
class UnionDedupOp:
    """Union the operator outputs and keep distinct segment pairs."""


@dataclass(frozen=True)
class RefineOp:
    """Witness-refine pairs against raw data (``rank_hits`` semantics)."""

    verified_only: bool = False


@dataclass(frozen=True)
class QueryPlan:
    """One executable drop/jump search plan.

    ``t_range`` restricts results to pairs whose ``[t_d, t_a]`` extent
    overlaps the closed interval — the time-pruning predicate the
    partitioned executor also routes on (partitions whose feature extent
    misses the range are skipped entirely).
    """

    query: Query
    point_op: PointRangeOp
    line_op: LineCrossOp
    union_op: UnionDedupOp = field(default_factory=UnionDedupOp)
    refine_op: Optional[RefineOp] = None
    t_range: Optional[Tuple[float, float]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "t_range", normalize_t_range(self.t_range))

    @property
    def kind(self) -> str:
        return self.query.kind

    @property
    def operators(self) -> Tuple[object, ...]:
        ops: Tuple[object, ...] = (self.point_op, self.line_op, self.union_op)
        if self.refine_op is not None:
            ops = ops + (self.refine_op,)
        return ops

    def describe(self) -> str:
        """Render the plan as an operator tree."""
        q = self.query
        header = f"QueryPlan[{q.kind}]  T={q.t_threshold:g}s  V={q.v_threshold:g}"
        if self.t_range is not None:
            header += f"  t_range=[{self.t_range[0]:g}, {self.t_range[1]:g}]"
        lines = [header]
        lines.append("└─ UnionDedupOp")
        lines.append(
            f"   ├─ PointRangeOp({self.point_op.table})  "
            f"access={self.point_op.access}"
        )
        lines.append(
            f"   {'├' if self.refine_op else '└'}─ "
            f"LineCrossOp({self.line_op.table})  access={self.line_op.access}"
        )
        if self.refine_op is not None:
            lines.append(
                f"   └─ RefineOp(verified_only={self.refine_op.verified_only})"
            )
        return "\n".join(lines)


def build_plan(
    query: Query,
    point_access: str = "index",
    line_access: Optional[str] = None,
    refine: Optional[RefineOp] = None,
    t_range: Optional[Tuple[float, float]] = None,
) -> QueryPlan:
    """Assemble the standard §4.4 plan with explicit access paths.

    ``line_access`` defaults to ``point_access``, except that a ``grid``
    point access pairs with the ``index`` line path (the memory backend's
    historical ``mode="grid"`` semantics).  ``t_range`` restricts results
    to pairs overlapping the closed time interval.
    """
    if line_access is None:
        line_access = "index" if point_access == "grid" else point_access
    return QueryPlan(
        query=query,
        point_op=PointRangeOp(
            query.kind, query.t_threshold, query.v_threshold, point_access
        ),
        line_op=LineCrossOp(
            query.kind, query.t_threshold, query.v_threshold, line_access
        ),
        refine_op=refine,
        t_range=t_range,
    )

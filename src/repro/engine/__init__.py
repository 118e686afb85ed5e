"""The unified query engine: plan → execute → refine, on any backend.

Layering (docs/query_engine.md has the full walkthrough)::

    SegDiffIndex / TieredIndex / ShardedIndex / CLI / experiments
                           │
                     QuerySession          (session.py: batching, EXPLAIN,
                           │                thread safety, auto planning,
                           │                per-query deadlines)
                 QueryPlan + CostModel     (plan.py, cost.py)
                           │
                       executor            (executor.py: the ONE copy of
                           │                union/dedup/refine — §4.4)
     scan_points_array / probe_point_index_array / scan_lines_array /
                   probe_line_index_array  ((m, k) blocks)
                           │
          MemoryFeatureStore · SqliteFeatureStore · MiniDbFeatureStore

Every execute and search entry point returns one type,
:class:`QueryOutcome`.  Its answer is the sorted, deduplicated
``(n, 4)`` ident matrix ``rows``, which stays a matrix through the
union, the scatter–gather merge and the telemetry; ``pairs`` builds the
:class:`~repro.types.SegmentPair` list from it once, on first read.

``resilience.py`` holds what every layer shares about a query's fate:
the :class:`Deadline` / :class:`QueryGuard` that ``timeout_ms`` sets
and the stores' loops tick, the :class:`QueryOutcome` with its verdict
(COMPLETE / DEGRADED / FAILED) and the :class:`RetryPolicy` the stores
retry transient failures with.  There is no serving policy: no
admission control, circuit breaker or degraded refine.
"""

from .cost import BACKEND_COSTS, BackendCosts, CostModel
from .executor import (
    OperatorStats,
    execute,
    execute_batch,
    execute_batch_partitioned,
    execute_partitioned,
)
from .plan import (
    LineCrossOp,
    PointRangeOp,
    QueryPlan,
    RefineOp,
    UnionDedupOp,
    build_plan,
    normalize_t_range,
)
from .resilience import (
    CompletenessReport,
    Deadline,
    QueryGuard,
    QueryOutcome,
    ResultStatus,
    RetryPolicy,
)
from .session import ExplainReport, OperatorExplain, QuerySession
from .sharding import (
    Divergence,
    Shard,
    ShardedIndex,
    ShardSpec,
    VerifyReport,
)

__all__ = [
    "BACKEND_COSTS",
    "BackendCosts",
    "CompletenessReport",
    "CostModel",
    "Deadline",
    "Divergence",
    "ExplainReport",
    "LineCrossOp",
    "OperatorExplain",
    "OperatorStats",
    "PointRangeOp",
    "QueryGuard",
    "QueryOutcome",
    "QueryPlan",
    "QuerySession",
    "RefineOp",
    "ResultStatus",
    "RetryPolicy",
    "Shard",
    "ShardSpec",
    "ShardedIndex",
    "UnionDedupOp",
    "VerifyReport",
    "build_plan",
    "execute",
    "execute_batch",
    "execute_batch_partitioned",
    "execute_partitioned",
    "normalize_t_range",
]

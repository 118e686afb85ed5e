"""The unified query engine: plan → execute → refine, on any backend.

Layering (docs/query_engine.md has the full walkthrough)::

    SegDiffIndex / TieredIndex / ShardedIndex / CLI / experiments
                           │
                     QuerySession          (session.py: batching, EXPLAIN,
                           │                thread safety, auto planning)
                 QueryPlan + CostModel     (plan.py, cost.py)
                           │
                       executor            (executor.py: the ONE copy of
                           │                union/dedup/refine — §4.4)
     scan_points_array / probe_point_index_array / scan_lines_array /
                   probe_line_index_array  ((m, k) blocks)
                           │
          MemoryFeatureStore · SqliteFeatureStore · MiniDbFeatureStore
"""

from .cost import BACKEND_COSTS, BackendCosts, CostModel
from .executor import (
    ExecutionResult,
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
    AdmissionController,
    CircuitBreaker,
    CompletenessReport,
    Deadline,
    QueryGuard,
    QueryOutcome,
    ResiliencePolicy,
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
    "AdmissionController",
    "BACKEND_COSTS",
    "BackendCosts",
    "CircuitBreaker",
    "CompletenessReport",
    "CostModel",
    "Deadline",
    "Divergence",
    "ExecutionResult",
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
    "ResiliencePolicy",
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

"""SegDiff — searching for drops (and jumps) in sensor data.

A faithful, production-quality reproduction of

    Gong Chen, Junghoo Cho, Mark H. Hansen.
    "On the brink: Searching for drops in sensor data."  EDBT 2008.

Quick start::

    from repro import SegDiffIndex, generate_cad_day

    series, truth = generate_cad_day()
    index = SegDiffIndex.build(series, epsilon=0.2, window=8 * 3600)
    pairs = index.search_drops(t_threshold=3600, v_threshold=-3.0)

See README.md for the architecture overview, DESIGN.md for the paper
mapping, and EXPERIMENTS.md for reproduction results.
"""

from .errors import (
    InvalidParameterError,
    InvalidSegmentError,
    InvalidSeriesError,
    QueryError,
    QueryTimeout,
    ReproError,
    ResilienceError,
    StorageError,
)
from .types import DataSegment, Event, Observation, SegmentPair
from .datagen import (
    CADConfig,
    CADTransectGenerator,
    PiecewiseLinearSignal,
    TimeSeries,
    generate_cad_day,
    iter_series_csv,
    load_series_csv,
    robust_loess,
    save_series_csv,
)
from .segmentation import (
    BottomUpSegmenter,
    SlidingWindowSegmenter,
    SWABSegmenter,
    compression_rate,
    segment_series,
)
from .core import (
    CorroboratedEvent,
    FeatureExtractor,
    LiveIndex,
    LiveSnapshot,
    Parallelogram,
    QueryRegion,
    SearchHit,
    SegDiffIndex,
    TieredIndex,
    audit_completeness,
    audit_soundness,
    collect_features,
    render_summary,
    summarize_hits,
    witness_event,
)
from .core.queries import DropQuery, JumpQuery
from .engine import (
    CostModel,
    ExplainReport,
    QueryPlan,
    QuerySession,
    build_plan,
)
from .storage import MemoryFeatureStore, SqliteFeatureStore
from .baselines import ExhIndex, NaiveScan

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "InvalidSeriesError",
    "InvalidParameterError",
    "InvalidSegmentError",
    "StorageError",
    "QueryError",
    "ResilienceError",
    "QueryTimeout",
    "Observation",
    "DataSegment",
    "Event",
    "SegmentPair",
    "TimeSeries",
    "PiecewiseLinearSignal",
    "CADConfig",
    "CADTransectGenerator",
    "generate_cad_day",
    "robust_loess",
    "iter_series_csv",
    "load_series_csv",
    "save_series_csv",
    "SlidingWindowSegmenter",
    "BottomUpSegmenter",
    "SWABSegmenter",
    "segment_series",
    "compression_rate",
    "SegDiffIndex",
    "LiveIndex",
    "LiveSnapshot",
    "TieredIndex",
    "CorroboratedEvent",
    "FeatureExtractor",
    "Parallelogram",
    "QueryRegion",
    "DropQuery",
    "JumpQuery",
    "QuerySession",
    "QueryPlan",
    "CostModel",
    "ExplainReport",
    "build_plan",
    "SearchHit",
    "witness_event",
    "summarize_hits",
    "render_summary",
    "collect_features",
    "audit_completeness",
    "audit_soundness",
    "MemoryFeatureStore",
    "SqliteFeatureStore",
    "ExhIndex",
    "NaiveScan",
    "__version__",
]

"""repro.obs — process-local observability: metrics, tracing, exporters,
and the flight recorder, the one ring of recent events (slow queries,
retained traces, seals, failovers, timeouts, ...) keyed by ``query_id``.

The package is stdlib-only and imported by every layer of the stack
(segmentation, extraction, storage, engine), so it must never import
from the rest of ``repro``.  See docs/observability.md for the metric
catalog and usage examples.

Quick tour::

    from repro import obs

    obs.REGISTRY.counter("repro_demo_total").inc()
    with obs.span("demo.step") as s:
        s.set_attribute("rows", 42)
    print(obs.render_table())
"""

from .metrics import (  # noqa: F401
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    QUERY_LATENCY_BUCKETS,
    MetricSample,
    MetricsRegistry,
    REGISTRY,
    ROWS_BUCKETS,
    get_registry,
)
from .context import (  # noqa: F401
    QueryContext,
    ResourceAccounting,
    account,
    bind_scope,
    current_context,
    current_scope,
    new_context,
    use_context,
)
from .recorder import (  # noqa: F401
    CATEGORIES as RECORDER_CATEGORIES,
    EVENT_SCHEMA as RECORDER_EVENT_SCHEMA,
    FlightEvent,
    FlightRecorder,
    RECORDER,
    default_threshold,
    record,
    set_default_threshold,
)
from .metrics import enabled as metrics_enabled  # noqa: F401
from .metrics import set_enabled as set_metrics_enabled  # noqa: F401
from .tracing import (  # noqa: F401
    Span,
    TRACER,
    Tracer,
    current_span,
    enabled_ctx,
    iter_spans,
    render_span_tree,
    span,
)
from .tracing import enabled as tracing_enabled  # noqa: F401
from .tracing import set_enabled as set_tracing_enabled  # noqa: F401
from .export import (  # noqa: F401
    parse_prometheus,
    render_table,
    to_jsonl,
    to_prometheus,
    validate_jsonl,
    validate_schema,
    write_jsonl,
)

__all__ = [
    # metrics
    "Counter", "Gauge", "Histogram", "MetricSample", "MetricsRegistry",
    "REGISTRY", "LATENCY_BUCKETS", "QUERY_LATENCY_BUCKETS",
    "ROWS_BUCKETS", "get_registry",
    "metrics_enabled", "set_metrics_enabled",
    # query context / accounting
    "QueryContext", "ResourceAccounting", "account", "bind_scope",
    "current_context", "current_scope", "new_context", "use_context",
    # flight recorder and its one slow-query threshold
    "FlightEvent", "FlightRecorder", "RECORDER", "RECORDER_CATEGORIES",
    "RECORDER_EVENT_SCHEMA", "record",
    "set_default_threshold", "default_threshold",
    # tracing
    "Span", "Tracer", "TRACER", "span", "current_span",
    "render_span_tree", "iter_spans",
    "enabled_ctx", "tracing_enabled", "set_tracing_enabled",
    # export
    "to_jsonl", "write_jsonl", "to_prometheus", "parse_prometheus",
    "render_table", "validate_jsonl", "validate_schema",
]

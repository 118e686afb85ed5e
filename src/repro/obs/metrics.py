"""Process-local metrics: counters, gauges, fixed-bucket histograms.

The registry is the single always-on telemetry substrate of the system
(docs/observability.md).  Design constraints, in order:

1. **Cheap enough to be always-on.**  An ``inc()`` is one enabled-flag
   check plus one int bump under a per-metric lock — well under the cost
   of the work it measures.  Instrumented modules fetch their metric
   handles once (module scope or ``__init__``), never per event.
2. **Correct under threads.**  Every mutation and every read of a
   metric's state happens under that metric's lock, so concurrent
   ``inc()`` calls never lose updates and :meth:`MetricsRegistry.snapshot`
   observes each metric atomically.
3. **Stable handles.**  Registration is idempotent — asking for the same
   ``(name, labels)`` returns the same object — and :meth:`reset` zeroes
   metrics *in place* instead of discarding them, so handles cached at
   import time stay live for the life of the process.

Metrics may carry a small, fixed set of labels (``backend="sqlite"``);
each distinct label set is its own time series, as in Prometheus.
Global on/off: :func:`set_enabled` (or ``REPRO_METRICS=0`` in the
environment).  Metrics registered ``always_on=True`` ignore the switch —
used where counters double as functional state (the MiniDB pager stats
that EXPLAIN and the page-cost experiment read).
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricSample",
    "MetricsRegistry",
    "REGISTRY",
    "LATENCY_BUCKETS",
    "QUERY_LATENCY_BUCKETS",
    "ROWS_BUCKETS",
    "get_registry",
    "set_enabled",
    "enabled",
]

#: Default latency buckets (seconds): microseconds to tens of seconds.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)
#: ``repro_query_seconds`` buckets, tuned to the block read path: most
#: single queries land between ~10 µs (memory-store probes) and ~15 ms
#: (the ledger's ``query_p50_ms`` is 3-12 ms across its four workloads,
#: benchmarks/ledger/STABILITY.md), so a 100 µs first edge would
#: collapse p50/p99 into one bucket.  Edges run 10 µs → 1 s with double
#: resolution below 1 ms; batch grids and cold caches still land in the
#: coarse upper decades.
QUERY_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001,
    0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0, 5.0,
)
#: Default row-count buckets: decades from 1 to 1M.
ROWS_BUCKETS: Tuple[float, ...] = (
    1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0,
)

_ENABLED = os.environ.get("REPRO_METRICS", "1") != "0"


def set_enabled(on: bool) -> None:
    """Globally enable/disable metric recording (always-on metrics keep
    counting).  Used by the overhead benchmark's off/on comparison."""
    global _ENABLED
    _ENABLED = bool(on)


def enabled() -> bool:
    return _ENABLED


def _freeze_labels(labels: Optional[Mapping[str, str]]) -> Tuple[Tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass(frozen=True)
class MetricSample:
    """One normalized time series, as exporters consume it."""

    name: str
    type: str  # "counter" | "gauge" | "histogram"
    labels: Tuple[Tuple[str, str], ...]
    help: str = ""
    value: Optional[float] = None  # counters and gauges
    # histograms only: cumulative (le, count) pairs, +Inf last
    buckets: Tuple[Tuple[float, int], ...] = ()
    sum: float = 0.0
    count: int = 0

    def labels_dict(self) -> Dict[str, str]:
        return dict(self.labels)


class _Metric:
    """Shared identity + lock for every metric kind."""

    TYPE = "untyped"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
        always_on: bool = False,
    ) -> None:
        self.name = name
        self.help = help
        self.labels = _freeze_labels(labels)
        self._always_on = always_on
        self._lock = threading.Lock()

    def _recording(self) -> bool:
        return _ENABLED or self._always_on

    def sample(self) -> MetricSample:  # pragma: no cover - overridden
        raise NotImplementedError


class Counter(_Metric):
    """A monotonically increasing count."""

    TYPE = "counter"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._value = 0

    def inc(self, n: int = 1) -> None:
        if not self._recording():
            return
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0

    def sample(self) -> MetricSample:
        return MetricSample(
            self.name, self.TYPE, self.labels, self.help, float(self.value)
        )


class Gauge(_Metric):
    """A value that can go up and down (open handles, queue depths)."""

    TYPE = "gauge"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._value = 0.0

    def set(self, value: float) -> None:
        if not self._recording():
            return
        with self._lock:
            self._value = float(value)

    def inc(self, n: float = 1.0) -> None:
        if not self._recording():
            return
        with self._lock:
            self._value += n

    def dec(self, n: float = 1.0) -> None:
        self.inc(-n)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def sample(self) -> MetricSample:
        return MetricSample(
            self.name, self.TYPE, self.labels, self.help, self.value
        )


class _Timer:
    """Context manager observing elapsed seconds into a histogram."""

    __slots__ = ("_hist", "_t0")

    def __init__(self, hist: "Histogram") -> None:
        self._hist = hist
        self._t0 = 0.0

    def __enter__(self) -> "_Timer":
        self._t0 = time.perf_counter() if self._hist._recording() else 0.0
        return self

    def __exit__(self, *exc_info) -> None:
        if self._t0:
            self._hist.observe(time.perf_counter() - self._t0)


class Histogram(_Metric):
    """Fixed-bucket histogram with Prometheus ``le`` semantics.

    ``buckets`` are inclusive upper bounds in increasing order; an
    implicit ``+Inf`` bucket catches the overflow.  ``observe`` is one
    bisect plus three bumps under the metric lock.
    """

    TYPE = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
        buckets: Iterable[float] = LATENCY_BUCKETS,
        always_on: bool = False,
    ) -> None:
        super().__init__(name, help, labels, always_on)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b >= c for b, c in zip(bounds, bounds[1:])
        ):
            raise ValueError(
                f"histogram buckets must be strictly increasing: {bounds}"
            )
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot: +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        if not self._recording():
            return
        idx = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    def time(self) -> _Timer:
        """``with hist.time(): ...`` — observe the block's wall time."""
        return _Timer(self)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        with self._lock:
            return self._sum

    def per_bucket_counts(self) -> List[int]:
        """Non-cumulative per-bucket counts (the +Inf slot last)."""
        with self._lock:
            return list(self._counts)

    def _reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._sum = 0.0
            self._count = 0

    def sample(self) -> MetricSample:
        with self._lock:
            counts = list(self._counts)
            total, count = self._sum, self._count
        cumulative: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, counts):
            running += n
            cumulative.append((bound, running))
        cumulative.append((float("inf"), running + counts[-1]))
        return MetricSample(
            self.name,
            self.TYPE,
            self.labels,
            self.help,
            value=None,
            buckets=tuple(cumulative),
            sum=total,
            count=count,
        )


@dataclass
class _Family:
    """All series registered under one metric name."""

    type: str
    help: str
    series: Dict[Tuple[Tuple[str, str], ...], _Metric] = field(
        default_factory=dict
    )


class MetricsRegistry:
    """Process-local registry of named metrics.

    Registration is idempotent per ``(name, labels)``; a name maps to
    exactly one metric type (re-registering with a different type
    raises).  :meth:`snapshot` and :meth:`collect` read each metric
    atomically; :meth:`reset` zeroes all metrics in place so cached
    handles stay live.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #

    def _register(self, cls, name: str, help: str,
                  labels: Optional[Mapping[str, str]], **kwargs) -> _Metric:
        key = _freeze_labels(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(type=cls.TYPE, help=help)
                self._families[name] = family
            elif family.type != cls.TYPE:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{family.type}, not {cls.TYPE}"
                )
            metric = family.series.get(key)
            if metric is None:
                metric = cls(name, help or family.help, labels, **kwargs)
                family.series[key] = metric
                if help and not family.help:
                    family.help = help
            return metric

    def counter(self, name: str, help: str = "",
                labels: Optional[Mapping[str, str]] = None,
                always_on: bool = False) -> Counter:
        return self._register(
            Counter, name, help, labels, always_on=always_on
        )

    def gauge(self, name: str, help: str = "",
              labels: Optional[Mapping[str, str]] = None) -> Gauge:
        return self._register(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Optional[Mapping[str, str]] = None,
                  buckets: Iterable[float] = LATENCY_BUCKETS,
                  always_on: bool = False) -> Histogram:
        return self._register(
            Histogram, name, help, labels, buckets=buckets,
            always_on=always_on,
        )

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    def collect(self) -> List[MetricSample]:
        """Every registered series as a normalized sample, sorted by
        ``(name, labels)`` — the exporters' input."""
        with self._lock:
            metrics = [
                m
                for name in sorted(self._families)
                for _k, m in sorted(self._families[name].series.items())
            ]
        return [m.sample() for m in metrics]

    def snapshot(self) -> Dict[str, float]:
        """A flat ``name{labels} -> value`` map (histograms contribute
        ``_count`` and ``_sum`` entries).  Each metric is read atomically
        under its own lock."""
        out: Dict[str, float] = {}
        for s in self.collect():
            key = s.name + _labels_suffix(s.labels)
            if s.type == "histogram":
                out[key + "_count"] = float(s.count)
                out[key + "_sum"] = float(s.sum)
            else:
                out[key] = float(s.value)
        return out

    def get(self, name: str,
            labels: Optional[Mapping[str, str]] = None) -> Optional[_Metric]:
        """The registered metric, or ``None`` (never creates)."""
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return None
            return family.series.get(_freeze_labels(labels))

    def reset(self) -> None:
        """Zero every metric *in place* (handles stay valid)."""
        with self._lock:
            metrics = [
                m for f in self._families.values() for m in f.series.values()
            ]
        for m in metrics:
            m._reset()


def _labels_suffix(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


#: The process-wide default registry every instrumented module uses.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY

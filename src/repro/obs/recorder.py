"""Flight recorder: THE bounded ring of "what went wrong recently".

A postmortem needs more than the failing query's own numbers — it needs
what the *process* was doing around it: partitions sealing, compactions
rewriting files, WAL replays on open, shard replicas failing over,
deadlines missed, anti-entropy repairing checksums.  The recorder keeps
the most recent of these as structured events in one process-wide,
thread-safe ring, beside the two query-level records that used to have
buffers of their own:

* ``slow_query`` — a query that took at least the process-wide
  threshold (:func:`set_default_threshold` / ``REPRO_SLOW_QUERY_MS``),
  named by its API, with its plan, per-operator actuals, status and
  resource accounting;
* ``trace`` — a retained span tree (``Span.to_dict()``): a slow,
  unhealthy or failed query's own trace, or every root while tracing is
  enabled process-wide (``segdiff search --trace``).

Every event carries the ``query_id`` of the query context bound on the
recording thread (``None`` outside a query), so one query's slow record,
trace, failovers, timeouts and lost shards are one filter away.  The
engine attaches the recent tail to failing/degraded
:class:`~repro.engine.resilience.QueryOutcome`\\ s, and the ``segdiff
debug`` CLI dumps it as schema-validated JSONL
(``benchmarks/recorder.schema.json``).

Recording one event is a timestamp, a dict, and a deque append under a
lock — cheap enough to stay always-on.  The ring is bounded
(``maxlen``), so memory never grows with uptime, and ``seq`` is a
process-monotonic sequence number so consumers can detect drops between
two tails.
"""

from __future__ import annotations

import itertools
import logging
import math
import os
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from . import context as _context

__all__ = [
    "CATEGORIES",
    "EVENT_SCHEMA",
    "FlightEvent",
    "FlightRecorder",
    "RECORDER",
    "record",
    "tail",
    "clear",
    "set_default_threshold",
    "default_threshold",
]

logger = logging.getLogger("repro.engine")

#: Event categories the schema admits.
CATEGORIES = (
    "seal",
    "compaction",
    "expire",
    "wal_replay",
    "failover",
    "checksum_repair",
    "timeout",
    "degraded",
    "scrub",
    "slow_query",
    "trace",
)

#: JSON Schema (the subset ``export.validate_schema`` checks) for one
#: dumped event — the in-code twin of ``benchmarks/recorder.schema.json``.
EVENT_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["ts", "seq", "category", "name", "query_id", "attrs"],
    "additionalProperties": False,
    "properties": {
        "ts": {"type": "number", "minimum": 0},
        "seq": {"type": "integer", "minimum": 1},
        "category": {"type": "string", "enum": list(CATEGORIES)},
        "name": {"type": "string"},
        "query_id": {"type": ["string", "null"]},
        "attrs": {"type": "object"},
    },
}

_seq = itertools.count(1)


def _env_threshold() -> Optional[float]:
    """``REPRO_SLOW_QUERY_MS`` in seconds; a malformed, negative or NaN
    value is reported once and leaves the threshold off."""
    raw = os.environ.get("REPRO_SLOW_QUERY_MS")
    if not raw:
        return None
    try:
        ms = float(raw)
    except ValueError:
        ms = math.nan
    if math.isnan(ms) or ms < 0:
        logger.warning(
            "ignoring REPRO_SLOW_QUERY_MS=%r: want a non-negative number "
            "of milliseconds; slow queries are not recorded", raw,
        )
        return None
    return ms / 1000.0


_DEFAULT_THRESHOLD: Optional[float] = _env_threshold()


def set_default_threshold(seconds: Optional[float]) -> None:
    """The process-wide slow-query threshold in seconds (None: off)."""
    global _DEFAULT_THRESHOLD
    if seconds is not None:
        seconds = float(seconds)
        if math.isnan(seconds) or seconds < 0:
            raise ValueError(
                f"slow-query threshold must be >= 0 seconds, got {seconds}"
            )
    _DEFAULT_THRESHOLD = seconds


def default_threshold() -> Optional[float]:
    return _DEFAULT_THRESHOLD


class FlightEvent:
    """One recorded event."""

    __slots__ = ("ts", "seq", "category", "name", "query_id", "attrs")

    def __init__(self, category: str, name: str, query_id: Optional[str],
                 attrs: Dict[str, Any]) -> None:
        self.ts = time.time()
        self.seq = next(_seq)
        self.category = category
        self.name = name
        self.query_id = query_id
        self.attrs = attrs

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ts": self.ts,
            "seq": self.seq,
            "category": self.category,
            "name": self.name,
            "query_id": self.query_id,
            "attrs": dict(self.attrs),
        }

    def render(self) -> str:
        """One line; nested payloads (a trace's spans, a slow query's
        operators and accounting) and the rest of a multi-line value
        (a plan tree) are left to the JSONL dump."""
        inner = " ".join(
            f"{k}=" + str(v).partition("\n")[0]
            for k, v in sorted(self.attrs.items())
            if v is not None and not isinstance(v, (dict, list))
        )
        qid = f"  {self.query_id}" if self.query_id is not None else ""
        return (
            f"#{self.seq}{qid}  {self.category}:{self.name}"
            + (f"  [{inner}]" if inner else "")
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FlightEvent({self.render()})"


class FlightRecorder:
    """Bounded, thread-safe ring of :class:`FlightEvent`."""

    def __init__(self, maxlen: int = 256) -> None:
        self._events: Deque[FlightEvent] = deque(maxlen=maxlen)
        self._lock = threading.Lock()

    def record(self, category: str, name: str, /,
               **attrs: Any) -> FlightEvent:
        """Append one event, keyed by the bound query context's id.

        ``category`` and ``name`` are positional-only so a span tree's
        own ``name`` key can ride in ``attrs``."""
        if category not in CATEGORIES:
            raise ValueError(
                f"unknown flight-recorder category {category!r}; "
                f"known: {CATEGORIES}"
            )
        ctx = _context.current_context()
        query_id = ctx.query_id if ctx is not None else None
        # constructed under the lock so ``seq`` order and ring order
        # agree — a tail is always seq-sorted, with gaps only at drops
        with self._lock:
            event = FlightEvent(category, name, query_id, attrs)
            self._events.append(event)
        return event

    def tail(self, n: Optional[int] = None) -> List[FlightEvent]:
        """Most recent events, oldest first (all when ``n`` is None)."""
        with self._lock:
            events = list(self._events)
        return events if n is None else events[-n:]

    def tail_dicts(self, n: Optional[int] = None) -> List[Dict[str, Any]]:
        return [e.to_dict() for e in self.tail(n)]

    def to_jsonl(self, n: Optional[int] = None) -> str:
        """The tail as JSON Lines (``recorder.schema.json`` rows)."""
        import json

        return "\n".join(
            json.dumps(d, sort_keys=True) for d in self.tail_dicts(n)
        )

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


#: The process-wide recorder every instrumented module feeds.
RECORDER = FlightRecorder()


def record(category: str, name: str, /, **attrs: Any) -> FlightEvent:
    """Record one event on the default recorder."""
    return RECORDER.record(category, name, **attrs)


def tail(n: Optional[int] = None) -> List[FlightEvent]:
    return RECORDER.tail(n)


def clear() -> None:
    RECORDER.clear()

"""Flight recorder: a bounded ring of recent operational events.

A postmortem needs more than the failing query's own trace — it needs
what the *process* was doing around it: partitions sealing, compactions
rewriting files, WAL replays on open, shard replicas failing over,
deadlines missed, anti-entropy repairing checksums.  The recorder keeps the most recent of these as
structured events in one process-wide, thread-safe ring; the engine
attaches the recent tail to failing/degraded
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
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

__all__ = [
    "CATEGORIES",
    "EVENT_SCHEMA",
    "FlightEvent",
    "FlightRecorder",
    "RECORDER",
    "record",
    "tail",
    "clear",
]

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
)

#: JSON Schema (the subset ``export.validate_schema`` checks) for one
#: dumped event — the in-code twin of ``benchmarks/recorder.schema.json``.
EVENT_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["ts", "seq", "category", "name", "attrs"],
    "additionalProperties": False,
    "properties": {
        "ts": {"type": "number", "minimum": 0},
        "seq": {"type": "integer", "minimum": 1},
        "category": {"type": "string", "enum": list(CATEGORIES)},
        "name": {"type": "string"},
        "attrs": {"type": "object"},
    },
}

_seq = itertools.count(1)


class FlightEvent:
    """One recorded operational event."""

    __slots__ = ("ts", "seq", "category", "name", "attrs")

    def __init__(self, category: str, name: str,
                 attrs: Dict[str, Any]) -> None:
        self.ts = time.time()
        self.seq = next(_seq)
        self.category = category
        self.name = name
        self.attrs = attrs

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ts": self.ts,
            "seq": self.seq,
            "category": self.category,
            "name": self.name,
            "attrs": dict(self.attrs),
        }

    def render(self) -> str:
        inner = " ".join(f"{k}={v}" for k, v in sorted(self.attrs.items()))
        return (
            f"#{self.seq}  {self.category}:{self.name}"
            + (f"  [{inner}]" if inner else "")
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FlightEvent({self.render()})"


class FlightRecorder:
    """Bounded, thread-safe ring of :class:`FlightEvent`."""

    def __init__(self, maxlen: int = 256) -> None:
        self._events: Deque[FlightEvent] = deque(maxlen=maxlen)
        self._lock = threading.Lock()

    def record(self, category: str, name: str, **attrs: Any) -> FlightEvent:
        if category not in CATEGORIES:
            raise ValueError(
                f"unknown flight-recorder category {category!r}; "
                f"known: {CATEGORIES}"
            )
        # constructed under the lock so ``seq`` order and ring order
        # agree — a tail is always seq-sorted, with gaps only at drops
        with self._lock:
            event = FlightEvent(category, name, attrs)
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


def record(category: str, name: str, **attrs: Any) -> FlightEvent:
    """Record one event on the default recorder."""
    return RECORDER.record(category, name, **attrs)


def tail(n: Optional[int] = None) -> List[FlightEvent]:
    return RECORDER.tail(n)


def clear() -> None:
    RECORDER.clear()

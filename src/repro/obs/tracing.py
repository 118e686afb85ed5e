"""Span-based tracing: nested timing trees for build and query paths.

A :class:`Span` measures one named unit of work (``query.search``,
``op.point_range``) with wall-clock duration, free-form attributes, and
child spans.  ``span(...)`` context managers opened while another span is
active on the same thread nest under it.  A finished root is kept as one
``trace`` event (its :meth:`Span.to_dict` tree) in the flight recorder
(``repro.obs.recorder``); :func:`render_span_tree` renders that form.

Spans are live while tracing is enabled process-wide (:func:`set_enabled`,
the CLI ``--trace`` flag, or scoped with ``enabled_ctx()``) or while the
thread has a bound :class:`~repro.obs.context.QueryContext`; otherwise
``span()`` returns a shared no-op whose enter/exit are two attribute
lookups.  With tracing enabled every root is recorded.  Under a bound
context alone the root is parked on the context, and the context's
owner records it only when the query was worth keeping (slow, degraded,
failed, timed out) — tail-based retention.

The active-span stack is thread-local: traces from concurrent sessions
never interleave.  Scatter-gather runs its shards and partitions on the
querying thread, so their spans nest under the scatter span by the
ordinary stack and one query is one connected tree.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Dict, Iterator, List, Optional

from . import context as _context
from . import recorder as _recorder

__all__ = [
    "Span",
    "Tracer",
    "TRACER",
    "span",
    "current_span",
    "set_enabled",
    "enabled",
    "render_span_tree",
]

_span_ids = itertools.count(1)


class Span:
    """One timed unit of work in a trace tree."""

    __slots__ = (
        "name", "span_id", "parent", "children", "attributes",
        "start", "end", "error",
    )

    def __init__(self, name: str, parent: Optional["Span"] = None) -> None:
        self.name = name
        self.span_id = next(_span_ids)
        self.parent = parent
        self.children: List[Span] = []
        self.attributes: Dict[str, Any] = {}
        self.start = 0.0
        self.end = 0.0
        self.error: Optional[str] = None
        if parent is not None:
            parent.children.append(self)

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        return max(0.0, self.end - self.start)

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly tree rooted at this span."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "duration_s": self.duration,
            "attributes": dict(self.attributes),
            "error": self.error,
            "children": [c.to_dict() for c in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Span({self.name!r}, {self.duration * 1e3:.2f}ms)"


class _NullSpan:
    """Shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()
    name = ""
    children: List[Span] = []
    attributes: Dict[str, Any] = {}
    duration = 0.0
    error = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set_attribute(self, key: str, value: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager driving one live span on the tracer's stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._span = Span(name, parent=tracer._current())

    def __enter__(self) -> Span:
        self._span.start = time.perf_counter()
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        s = self._span
        s.end = time.perf_counter()
        if exc is not None:
            s.error = f"{exc_type.__name__}: {exc}"
        self._tracer._pop(s)
        return False


class Tracer:
    """Thread-local span stacks; finished roots go to the recorder."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._enabled = False

    # -- enable switch -------------------------------------------------- #

    def set_enabled(self, on: bool) -> None:
        self._enabled = bool(on)

    @property
    def enabled(self) -> bool:
        return self._enabled

    # -- span lifecycle ------------------------------------------------- #

    def span(self, name: str):
        """A context manager yielding the new :class:`Span` (or a no-op
        when tracing is off).

        Live when tracing is enabled process-wide **or** the thread has
        a bound query context — the latter records lightweight
        per-query spans for tail-based retention without turning
        tracing on for the whole process.
        """
        if self._enabled or _context.current_context() is not None:
            return _ActiveSpan(self, name)
        return _NULL_SPAN

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def _push(self, s: Span) -> None:
        self._stack().append(s)

    def _pop(self, s: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is s:
            stack.pop()
        elif s in stack:  # mismatched exits: drop everything above too
            del stack[stack.index(s):]
        if s.parent is None:
            ctx = _context.current_context()
            if not self._enabled and ctx is not None:
                # context-traced only: park the root on the context; the
                # owner records it iff the outcome warrants (tail-based
                # retention) instead of flooding the ring with every
                # healthy query's trace.
                ctx.trace_roots.append(s)
            else:
                _recorder.record("trace", s.name, **s.to_dict())


#: Process-wide tracer used by all instrumented modules.
TRACER = Tracer()


def span(name: str):
    """``with span("query.search") as s: ...`` on the default tracer."""
    return TRACER.span(name)


def current_span() -> Optional[Span]:
    """The innermost open span on this thread (None when idle/off)."""
    return TRACER._current()


def set_enabled(on: bool) -> None:
    TRACER.set_enabled(on)


def enabled() -> bool:
    return TRACER.enabled


class enabled_ctx:
    """Temporarily enable (or disable) tracing::

        with enabled_ctx():
            index.search(...)
    """

    def __init__(self, on: bool = True) -> None:
        self._on = on
        self._prev = False

    def __enter__(self) -> None:
        self._prev = TRACER.enabled
        TRACER.set_enabled(self._on)

    def __exit__(self, *exc_info) -> None:
        TRACER.set_enabled(self._prev)


def _format_attrs(attrs: Dict[str, Any]) -> str:
    if not attrs:
        return ""
    inner = ", ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
    return f"  [{inner}]"


def render_span_tree(root: Dict[str, Any]) -> str:
    """An indented, human-readable rendering of one trace — the
    :meth:`Span.to_dict` form a ``trace`` event carries::

        query.search  4.21ms  [backend=minidb]
          query.plan  0.08ms
          op.point_range  1.90ms  [rows_in=840, rows_out=17]
    """
    lines: List[str] = []

    def walk(s: Dict[str, Any], depth: int) -> None:
        err = f"  !{s['error']}" if s["error"] else ""
        lines.append(
            f"{'  ' * depth}{s['name']}  {s['duration_s'] * 1e3:.2f}ms"
            f"{_format_attrs(s['attributes'])}{err}"
        )
        for child in s["children"]:
            walk(child, depth + 1)

    walk(root, 0)
    return "\n".join(lines)


def iter_spans(root: Span) -> Iterator[Span]:
    """Depth-first iteration over a finished trace."""
    yield root
    for child in root.children:
        yield from iter_spans(child)

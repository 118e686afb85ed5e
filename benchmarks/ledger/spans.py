"""Spans recorded by the runner around the calls into each layer.

The program is instrumented from outside: for the length of a traced
round the runner replaces a fixed list of public layer-boundary
functions (``TARGETS``) with wrappers that record ``name, start, end,
parent, op`` and restore the originals afterwards.  Nothing under
``src/`` changes; spans *inside* the program are a later PR.

A layer's self time is its span minus the part of that interval its
children cover (union of child intervals, so two shard calls running on
two pool threads are not counted twice).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

__all__ = ["Tracer", "layer_targets"]

COLUMNS = ("id", "name", "parent", "op", "start_s", "end_s", "pool_thread")

_INHERITED = object()


class Tracer:
    """In-memory span log with per-thread parent tracking."""

    def __init__(self, clock) -> None:
        #: harness.Clock: durations are reported at reference speed,
        #: like every other timing of a run (the dump keeps wall times)
        self.clock = clock
        self.spans: List[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: List[int] = []
        self._main_thread = threading.get_ident()
        self._installed: List[Tuple[object, str, object]] = []
        self.op: Optional[str] = None  # id of the op the client is running

    # -- recording ----------------------------------------------------- #

    def _stack(self) -> List[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack and stack is not self._main_stack:
            # a pool thread working for the one in-flight op: its cause
            # is whatever the (blocked) client thread has open
            parent = self._main_stack[-1]
        else:
            parent = None
        sid = next(self._ids)
        rec = [sid, name, parent, self.op, time.perf_counter(), None,
               threading.get_ident() != self._main_thread]
        self.spans.append(rec)
        stack.append(sid)
        try:
            yield rec
        finally:
            rec[5] = time.perf_counter()
            stack.pop()

    # -- instrumentation from outside ---------------------------------- #

    def install(self, targets: Iterable[Tuple[object, str, str]]) -> None:
        """Wrap ``owner.attr`` for every ``(owner, attr, span_name)``."""
        for owner, attr, name in targets:
            raw = inspect.getattr_static(owner, attr)
            kind = type(raw)
            if kind in (staticmethod, classmethod):
                wrapped = kind(self._wrap(raw.__func__, name))
            else:
                wrapped = self._wrap(raw, name)
            # what to put back: the owner's own binding, or nothing when
            # the attribute was inherited
            self._installed.append(
                (owner, attr, vars(owner).get(attr, _INHERITED))
            )
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kw):
            with tracer.span(name):
                return fn(*args, **kw)

        return traced

    # -- analysis ------------------------------------------------------ #

    def closed(self) -> List[list]:
        return [s for s in self.spans if s[5] is not None]

    def _corrected(self, spans: List[list], seconds: List[float]
                   ) -> List[float]:
        if not spans:
            return []
        mid = [0.5 * (s[4] + s[5]) for s in spans]
        return (np.asarray(seconds) / self.clock.slowdown(mid)).tolist()

    def durations(self, name: str) -> List[float]:
        spans = [s for s in self.closed() if s[1] == name]
        return self._corrected(spans, [s[5] - s[4] for s in spans])

    def self_times(self, name: str) -> List[float]:
        """Self time of every span called ``name``."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for s in self.closed():
            if s[2] is not None:
                children[s[2]].append((s[4], s[5]))
        spans = [s for s in self.closed() if s[1] == name]
        own = []
        for s in spans:
            covered, edge = 0.0, s[4]
            for lo, hi in sorted(children.get(s[0], ())):
                lo, hi = max(lo, edge), min(hi, s[5])
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            own.append((s[5] - s[4]) - covered)
        return self._corrected(spans, own)

    def dump(self, path: str, meta: Dict[str, object]) -> None:
        """Write every closed span, times in seconds since the first."""
        spans = self.closed()
        epoch = min((s[4] for s in spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"meta": meta, "columns": COLUMNS,
                 "spans": [s[:4] + [s[4] - epoch, s[5] - epoch] + s[6:]
                           for s in spans]},
                fh,
            )


def layer_targets() -> List[Tuple[object, str, str]]:
    """The layer boundaries a traced round records, by module."""
    from repro.core import live as live_mod
    from repro.core.index import SegDiffIndex
    from repro.core.live import LiveIndex
    from repro.engine import executor as executor_mod
    from repro.engine import session as session_mod
    from repro.engine.session import QuerySession
    from repro.engine.sharding import Shard, ShardedIndex
    from repro.storage.livewal import LiveWAL
    from repro.storage.memory_store import MemoryFeatureStore
    from repro.storage.minidb import MiniDbFeatureStore
    from repro.storage.partitions import PartitionManifest
    from repro.storage.sqlite_store import SqliteFeatureStore

    targets: List[Tuple[object, str, str]] = [
        (SegDiffIndex, "build", "index.build"),
        (SegDiffIndex, "open", "store.open"),
        (SegDiffIndex, "seal_checksums", "checksum.seal"),
        (QuerySession, "search_outcome", "session.search"),
        (QuerySession, "search_batch_outcomes", "session.search_batch"),
        (QuerySession, "plan", "cost.plan"),
        # the session and the partitioned executor each bound `execute`
        # by name, so both bindings are wrapped
        (session_mod, "execute", "executor.execute"),
        (session_mod, "execute_batch", "executor.execute_batch"),
        (executor_mod, "execute", "executor.execute"),
        (executor_mod, "execute_batch", "executor.execute_batch"),
        (live_mod, "execute_partitioned", "executor.execute_partitioned"),
        (live_mod, "execute_batch_partitioned",
         "executor.execute_batch_partitioned"),
        (ShardedIndex, "search_outcome", "sharding.fanout"),
        (Shard, "search_outcome", "sharding.shard"),
        (ShardedIndex, "open", "sharding.open"),
        (LiveIndex, "append_array", "live.append"),
        (LiveIndex, "snapshot", "live.snapshot"),
        (LiveIndex, "finalize", "live.finalize"),
        (LiveIndex, "open", "live.open"),
        (live_mod, "copy_store_into", "partitions.copy"),
        (live_mod, "store_trees", "checksum.seal"),
        (PartitionManifest, "save", "partitions.manifest_save"),
        (LiveWAL, "append", "livewal.append"),
        (LiveWAL, "rewrite", "livewal.rewrite"),
    ]
    for store_cls in (MemoryFeatureStore, SqliteFeatureStore,
                      MiniDbFeatureStore):
        targets += [
            (store_cls, "scan_points_array", "store.scan_points"),
            (store_cls, "probe_point_index_array", "store.probe_points"),
            (store_cls, "scan_lines_array", "store.scan_lines"),
            (store_cls, "probe_line_index_array", "store.probe_lines"),
            (store_cls, "add_features_bulk", "store.write"),
            (store_cls, "finalize", "store.finalize"),
        ]
    return targets

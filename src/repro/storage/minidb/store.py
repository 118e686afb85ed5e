"""The MiniDB-backed feature store.

A drop-in third backend for :class:`~repro.storage.base.FeatureStore`
whose every query reports exactly which pages it touched
(``last_query_stats``) — the instrumented substrate behind
``repro.experiments.page_cost``.

Plan semantics mirror the SQLite backend:

* ``mode="scan"`` — sequential heap scans of the point and line tables;
* ``mode="index"`` — B+tree leading-column range scans; each *matching*
  entry pays one heap fetch for its identifying timestamps (the random
  I/O that makes indexes lose on hard queries).  On a clustered table (a
  sealed live partition, :mod:`.sealed`) the heap is in key order, so
  the probe is a prefix of the chain and fetches nothing;
* ``cache="cold"`` — the buffer pool is dropped before the query, making
  the paper's flushed-cache runs exact and deterministic.
"""

from __future__ import annotations

import os
import tempfile
from typing import Dict, List, Mapping, Optional

from ...engine.resilience import RetryPolicy
from ...errors import (
    CorruptionError,
    InvalidParameterError,
    InvalidSegmentError,
    RecoveryError,
    StorageError,
)
from ...obs import context as obs_context
from ...obs.metrics import REGISTRY, ROWS_BUCKETS
from ...types import DataSegment, SegmentPair
from ..base import FeatureStore, Query, StoreCounts
from ..durable import RealFS
from ...core.corners import FeatureSet
from ...core.queries import line_mask, point_mask
from .columnar import ColumnarView, decode_heap_chain, probe_index_block
from .database import MiniDatabase
from .pager import PAGE_SIZE, PagerStats

__all__ = ["MiniDbFeatureStore"]

_ROWS_WRITTEN = REGISTRY.counter(
    "repro_store_rows_written_total",
    "Feature rows written to a store", {"backend": "minidb"},
)
_FLUSH_ROWS = REGISTRY.histogram(
    "repro_store_flush_rows",
    "Rows per bulk write reaching a store", {"backend": "minidb"},
    buckets=ROWS_BUCKETS,
)
_OPEN_STORES = REGISTRY.gauge(
    "repro_store_open", "Feature stores currently open",
    {"backend": "minidb"},
)

_POINT_TABLES = {"drop": "drop_points", "jump": "jump_points"}
_LINE_TABLES = {"drop": "drop_lines", "jump": "jump_lines"}
_FEATURE_TABLES = ("drop_points", "drop_lines", "jump_points", "jump_lines")
#: Every table of a feature store file, in creation order, with its width.
TABLE_WIDTHS = (("drop_points", 6), ("jump_points", 6), ("drop_lines", 8),
                ("jump_lines", 8), ("segments", 4))


def key_cols(width: int) -> tuple:
    """A feature table's key: (Δt, Δv) or (Δt1, Δv1, Δt2, Δv2)."""
    return (0, 1) if width == 6 else (0, 1, 2, 3)

#: Shared retry loop for transient open failures (a WAL held briefly by
#: a finishing writer, an EINTR-style hiccup).  Corruption/recovery
#: failures are deterministic — retrying cannot cure bad bytes.
_OPEN_RETRY = RetryPolicy(name="minidb_open")


def _open_transient(exc: BaseException) -> bool:
    return not isinstance(exc, (CorruptionError, RecoveryError))


class MiniDbFeatureStore(FeatureStore):
    """Feature store over a MiniDB page file.

    ``path=None`` uses a private temporary file removed on close;
    ``cache_pages`` sizes the buffer pool (warm-cache capacity).
    Every page write is checksummed and every write batch atomic (see
    docs/durability.md); ``fsync`` adds real disk barriers, and ``_fs``
    is the file facade the fault harness replaces.
    """

    BACKEND = "minidb"
    # reads go through a shared buffer pool with no latching
    THREAD_SAFE_READS = False

    def __init__(
        self,
        path: Optional[str] = None,
        cache_pages: int = 256,
        fsync: bool = False,
        _fs: Optional[RealFS] = None,
    ) -> None:
        if path is None:
            fd, path = tempfile.mkstemp(prefix="segdiff-", suffix=".minidb")
            os.close(fd)
            os.unlink(path)
            self._owns_file = True
        else:
            self._owns_file = False
        self.path = path
        self._fs = _fs or RealFS()
        self.db = _OPEN_RETRY.run(
            lambda: MiniDatabase(
                path, cache_pages=cache_pages, fsync=fsync, fs=self._fs
            ),
            catch=(StorageError, OSError),
            transient=_open_transient,
        )
        with self.db.transaction():
            for name, width in TABLE_WIDTHS:
                if not self.db.has_table(name):
                    self.db.create_table(name, width)
        self._closed = False
        # columnar read view over sealed heap pages: built lazily on the
        # first array scan, dropped on every write/checkpoint/cold-cache
        self._columnar = ColumnarView(self.db)
        self._indexed_rows: Dict[str, int] = {
            t: -1 for t in _FEATURE_TABLES
        }
        for t in _FEATURE_TABLES:
            table = self.db.table(t)
            if table.has_index("by_key") or table.clustered:
                self._indexed_rows[t] = table.n_rows
        #: Pager counters accumulated by the most recent search().
        self.last_query_stats: Optional[PagerStats] = None
        _OPEN_STORES.inc()

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #

    def add(self, features: FeatureSet) -> None:
        # deliberately NOT a transaction of its own: committing per
        # feature set would make a segment durable before all of its
        # pairs are, and a crash in between is unrecoverable (resume()
        # only regenerates pairs for segments after the last stored
        # one).  Work stays in the pool/WAL-pending until a checkpoint
        # boundary (finalize/set_meta_many) commits it.
        self._check_open()
        self._columnar.invalidate()
        self._add(features)

    def _add(self, features: FeatureSet) -> None:
        ident = features.pair.as_tuple()
        for p in features.drop_points:
            self.db.table("drop_points").insert((p.dt, p.dv) + ident)
        for seg in features.drop_lines:
            self.db.table("drop_lines").insert(
                (seg.p.dt, seg.p.dv, seg.q.dt, seg.q.dv) + ident
            )
        for p in features.jump_points:
            self.db.table("jump_points").insert((p.dt, p.dv) + ident)
        for seg in features.jump_lines:
            self.db.table("jump_lines").insert(
                (seg.p.dt, seg.p.dv, seg.q.dt, seg.q.dv) + ident
            )
        _ROWS_WRITTEN.inc(
            len(features.drop_points) + len(features.drop_lines)
            + len(features.jump_points) + len(features.jump_lines)
        )

    def add_features_bulk(self, batch) -> None:
        """Page-packed bulk append of a feature batch.

        Each heap page is written once when full instead of re-written
        per row.  Durability semantics match :meth:`add`: everything
        stays pool/WAL-pending until the next checkpoint boundary
        (finalize/set_meta_many) commits the whole run atomically.
        """
        self._check_open()
        self._columnar.invalidate()
        self.db.table("drop_points").insert_many(batch.drop_points)
        self.db.table("drop_lines").insert_many(batch.drop_lines)
        self.db.table("jump_points").insert_many(batch.jump_points)
        self.db.table("jump_lines").insert_many(batch.jump_lines)
        n = (
            len(batch.drop_points) + len(batch.drop_lines)
            + len(batch.jump_points) + len(batch.jump_lines)
        )
        _ROWS_WRITTEN.inc(n)
        _FLUSH_ROWS.observe(n)

    def add_segments_bulk(self, segments) -> None:
        # uncommitted until the next checkpoint boundary — see add()
        self._check_open()
        if not segments:
            return
        self._columnar.invalidate()
        self.db.table("segments").insert_many(
            [(s.t_start, s.v_start, s.t_end, s.v_end) for s in segments]
        )

    def finalize(self) -> None:
        """(Re)build the Section 4.4 B+trees and checkpoint the file."""
        self._check_open()
        self._columnar.invalidate()
        with self.db.transaction():
            for name in _FEATURE_TABLES:
                table = self.db.table(name)
                if table.n_rows == self._indexed_rows[name]:
                    continue  # index already current
                table.create_index("by_key", key_cols(table.width))
                self._indexed_rows[name] = table.n_rows
        self.db.checkpoint()

    def add_segment(self, segment) -> None:
        # uncommitted until the next checkpoint boundary — see add()
        self._check_open()
        self._columnar.invalidate()
        self.db.table("segments").insert(
            (segment.t_start, segment.v_start, segment.t_end, segment.v_end)
        )

    def load_segments(self) -> list:
        self._check_open()
        rows = decode_heap_chain(self.db.table("segments").heap)[0]
        try:
            return [DataSegment(*row) for row in rows.tolist()]
        except InvalidSegmentError as exc:  # bytes from disk
            raise CorruptionError(f"{self.path}: {exc}") from exc

    def set_meta_many(self, items: Mapping[str, float]) -> None:
        self._check_open()
        self._columnar.invalidate()
        for key, value in items.items():
            self.db.set_meta(key, float(value))
        self.db.checkpoint()

    def get_meta(self, key: str):
        self._check_open()
        value = self.db.get_meta(key)
        return None if value is None else float(value)

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    def search(
        self, query: Query, mode: str = "index", cache: str = "warm"
    ) -> List[SegmentPair]:
        """:meth:`FeatureStore.search`, recording the pager counters the
        query accumulated in ``last_query_stats``."""
        self._check_open()
        before = self.db.stats().snapshot()
        pairs = super().search(query, mode=mode, cache=cache)
        self.last_query_stats = self.db.stats().delta(before)
        return pairs

    # -- block primitives (engine interface) ---------------------------- #
    #
    # Rows move as whole (m, width) blocks: heap chains are decoded
    # page-at-a-time through the columnar view (mmap'd when the pager
    # has no uncommitted state) and B+tree probes decode whole leaves,
    # gathering ident columns with one physical heap read per distinct
    # page.  The index key holds the full predicate columns, so with a
    # value pushdown only *matching* entries pay the heap fetch — the
    # random I/O that makes indexes lose on hard queries stays visible
    # in the page stats.  See minidb/columnar.py for the accounting rules.

    def _check_index_current(self, name: str) -> None:
        if self.db.table(name).n_rows != self._indexed_rows[name]:
            raise StorageError(
                "indexes stale or missing; call finalize() first"
            )

    def _prepare_cache(self, cache: str) -> None:
        if cache == "cold":
            # drop the buffer pool so this operator's page reads are the
            # paper's flushed-cache regime, exactly and deterministically;
            # the columnar view goes with it, so the scan re-pays the
            # chain's physical reads
            self.db.drop_cache()
            self._columnar.invalidate()

    def scan_points_array(self, kind, t_threshold=None, v_threshold=None,
                          cache="warm", guard=None):
        self._check_open()
        self._prepare_cache(cache)
        block = self._columnar.table_block(_POINT_TABLES[kind], guard=guard)
        obs_context.account(rows_scanned=int(block.shape[0]),
                            bytes_decoded=int(block.nbytes))
        if v_threshold is not None:
            block = block[point_mask(kind, block[:, 0], block[:, 1],
                                     t_threshold, v_threshold)]
        return block

    def _probe(self, name, t_threshold, v_mask, cache, guard):
        """``Δt <= T`` on one table, then ``v_mask`` (keys -> bool): a
        B+tree walk and heap gather, or a clustered chain's prefix."""
        self._check_open()
        self._check_index_current(name)
        self._prepare_cache(cache)
        table = self.db.table(name)
        if table.clustered:
            if cache == "cold":  # walk the chain head up to the cut
                block = decode_heap_chain(table.heap, guard, t_threshold)[0]
            else:
                block = self._columnar.table_block(name, guard, t_threshold)
            if v_mask is not None:
                block = block[v_mask(block)]
        else:
            block = probe_index_block(table, "by_key", t_threshold,
                                      v_mask=v_mask, guard=guard)
        obs_context.account(rows_scanned=int(block.shape[0]),
                            bytes_decoded=int(block.nbytes))
        return block

    def probe_point_index_array(self, kind, t_threshold, v_threshold=None,
                                cache="warm", guard=None):
        v_mask = None
        if v_threshold is not None:
            def v_mask(keys):
                return point_mask(kind, keys[:, 0], keys[:, 1],
                                  t_threshold, v_threshold)
        return self._probe(_POINT_TABLES[kind], t_threshold, v_mask,
                           cache, guard)

    def scan_lines_array(self, kind, t_threshold=None, v_threshold=None,
                         cache="warm", guard=None):
        self._check_open()
        self._prepare_cache(cache)
        block = self._columnar.table_block(_LINE_TABLES[kind], guard=guard)
        obs_context.account(rows_scanned=int(block.shape[0]),
                            bytes_decoded=int(block.nbytes))
        if v_threshold is not None:
            block = block[line_mask(kind, block[:, 0], block[:, 1],
                                    block[:, 2], block[:, 3],
                                    t_threshold, v_threshold)]
        return block

    def probe_line_index_array(self, kind, t_threshold, v_threshold=None,
                               cache="warm", guard=None):
        v_mask = None
        if v_threshold is not None:
            def v_mask(keys):
                return line_mask(kind, keys[:, 0], keys[:, 1],
                                 keys[:, 2], keys[:, 3],
                                 t_threshold, v_threshold)
        return self._probe(_LINE_TABLES[kind], t_threshold, v_mask,
                           cache, guard)

    def read_table_rows(self, table: str, start: int = 0,
                        stop: Optional[int] = None):
        """Insertion-order row range: a read-only slice of the heap
        chain's columnar block (the chain *is* storage order)."""
        self._check_open()
        if table not in _FEATURE_TABLES:
            raise InvalidParameterError(f"unknown feature table {table!r}")
        return self._columnar.table_block(table)[start:stop]

    def page_reads(self) -> int:
        """Cumulative pager reads (the engine's EXPLAIN counter)."""
        self._check_open()
        return self.db.stats().page_reads

    def pager_stats(self) -> PagerStats:
        """Live cumulative pager counters (hits, misses, disk I/O)."""
        self._check_open()
        return self.db.stats()

    # ------------------------------------------------------------------ #
    # sampling / extremes (planner and top-k support)
    # ------------------------------------------------------------------ #

    def sample_points(self, kind: str, n: int):
        import numpy as np

        self._check_open()
        if kind not in _POINT_TABLES:
            raise InvalidParameterError(f"unknown kind {kind!r}")
        table = self.db.table(_POINT_TABLES[kind])
        total = table.n_rows
        if total == 0:
            return None
        step = max(1, total // max(n, 1))
        out = []
        for i, (_rid, row) in enumerate(table.scan()):
            if i % step == 0:
                out.append(row[:2])
                if len(out) >= n:
                    break
        return np.asarray(out, dtype=float)

    def extreme_feature_dv(self, kind: str):
        self._check_open()
        if kind not in _POINT_TABLES:
            raise InvalidParameterError(f"unknown kind {kind!r}")
        best: Optional[float] = None
        want_min = kind == "drop"

        def consider(value: float) -> None:
            nonlocal best
            if best is None or (value < best if want_min else value > best):
                best = value

        for _rid, row in self.db.table(_POINT_TABLES[kind]).scan():
            consider(row[1])
        for _rid, row in self.db.table(_LINE_TABLES[kind]).scan():
            consider(row[1])
            consider(row[3])
        return best

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    def counts(self) -> StoreCounts:
        self._check_open()
        return StoreCounts(
            drop_points=self.db.table("drop_points").n_rows,
            drop_lines=self.db.table("drop_lines").n_rows,
            jump_points=self.db.table("jump_points").n_rows,
            jump_lines=self.db.table("jump_lines").n_rows,
        )

    def feature_bytes(self) -> int:
        self._check_open()
        pages = sum(
            self.db.table(t).heap_pages() for t in _FEATURE_TABLES
        )
        return pages * PAGE_SIZE

    def index_bytes(self) -> int:
        self._check_open()
        pages = sum(
            self.db.table(t).index_pages() for t in _FEATURE_TABLES
        )
        return pages * PAGE_SIZE

    def check(self):
        """Run the MiniDB fsck pass; returns a list of CorruptionErrors."""
        self._check_open()
        return self.db.check()

    def close(self) -> None:
        if self._closed:
            return
        self.db.close()
        self._closed = True
        _OPEN_STORES.dec()
        if self._owns_file:
            for leftover in (self.path, self.path + ".wal"):
                if os.path.exists(leftover):
                    self._fs.remove(leftover)

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("store is closed")

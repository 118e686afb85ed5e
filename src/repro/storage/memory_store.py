"""In-memory feature store backed by numpy arrays.

This backend exists for two reasons: it makes the large property-based
test suite fast, and it serves as the "no database" ablation point —
``mode="scan"`` is a straight vectorized filter, ``mode="index"`` sorts
the point tables by ``dt`` once at ``finalize()`` and narrows candidates
with a binary search before applying the value predicate (a faithful
analogue of a ``(dt, dv)`` B-tree's leading-column pruning).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

import numpy as np

from ..core.corners import FeatureSet
from ..errors import InvalidParameterError, StorageError
from ..obs import context as obs_context
from ..obs.metrics import REGISTRY, ROWS_BUCKETS
from .base import FeatureStore, StoreCounts
from .grid_index import GridIndex

__all__ = ["MemoryFeatureStore"]

_ROWS_WRITTEN = REGISTRY.counter(
    "repro_store_rows_written_total",
    "Feature rows written to a store", {"backend": "memory"},
)
_FLUSH_ROWS = REGISTRY.histogram(
    "repro_store_flush_rows",
    "Rows per bulk write reaching a store", {"backend": "memory"},
    buckets=ROWS_BUCKETS,
)
_OPEN_STORES = REGISTRY.gauge(
    "repro_store_open", "Feature stores currently open",
    {"backend": "memory"},
)

_POINT_WIDTH = 6  # dt, dv, t_d, t_c, t_b, t_a
_LINE_WIDTH = 8  # dt1, dv1, dt2, dv2, t_d, t_c, t_b, t_a


class _Table:
    """An append/extend buffer that freezes into a 2-D float array.

    Scalar ``append`` collects tuples; bulk ``extend`` stores whole row
    arrays as chunks.  Both preserve global insertion order — pending
    tuples are sealed into a chunk whenever an array arrives — and
    ``freeze`` concatenates everything once.
    """

    def __init__(self, width: int) -> None:
        self.width = width
        self._rows: List[tuple] = []
        self._chunks: List[np.ndarray] = []
        self._frozen: Optional[np.ndarray] = None
        self._order: Optional[np.ndarray] = None  # sort permutation by col 0
        self._grid: Optional[GridIndex] = None  # built lazily on demand

    def _thaw(self) -> None:
        """Reopen a frozen table for further writes."""
        if self._frozen is not None:
            if self._frozen.shape[0]:
                self._chunks = [self._frozen]
            self._frozen = None
            self._order = None
            self._grid = None

    def append(self, row: tuple) -> None:
        self._thaw()
        self._rows.append(row)

    def extend(self, rows: np.ndarray) -> None:
        if rows.shape[0] == 0:
            return
        self._thaw()
        if self._rows:
            self._chunks.append(
                np.asarray(self._rows, dtype=float).reshape(-1, self.width)
            )
            self._rows = []
        self._chunks.append(np.asarray(rows, dtype=float))

    def freeze(self) -> None:
        if self._frozen is None:
            parts = list(self._chunks)
            if self._rows:
                parts.append(
                    np.asarray(self._rows, dtype=float).reshape(-1, self.width)
                )
            if not parts:
                self._frozen = np.empty((0, self.width), dtype=float)
            elif len(parts) == 1:
                self._frozen = parts[0]
            else:
                self._frozen = np.concatenate(parts, axis=0)
            self._rows = []
            self._chunks = []
        self._order = np.argsort(self._frozen[:, 0], kind="stable")

    @property
    def data(self) -> np.ndarray:
        if self._frozen is None:
            raise StorageError("store not finalized; call finalize() first")
        return self._frozen

    @property
    def sorted_by_dt(self) -> np.ndarray:
        return self.data[self._order]

    @property
    def grid(self) -> GridIndex:
        if self._grid is None:
            self._grid = GridIndex(self.data)
        return self._grid

    def replace(self, start: int, rows: np.ndarray) -> None:
        """Overwrite rows ``[start, start + len(rows))`` in place.

        Anti-entropy repair path: the table must be frozen, and the
        dt-order permutation and grid are invalidated because row values
        changed under them.
        """
        if self._frozen is None:
            raise StorageError("store not finalized; call finalize() first")
        rows = np.asarray(rows, dtype=float).reshape(-1, self.width)
        stop = start + rows.shape[0]
        if start < 0 or stop > self._frozen.shape[0]:
            raise StorageError(
                f"row range [{start}, {stop}) outside table of "
                f"{self._frozen.shape[0]} rows"
            )
        if not self._frozen.flags.writeable:
            self._frozen = self._frozen.copy()
        self._frozen[start:stop] = rows
        self._order = np.argsort(self._frozen[:, 0], kind="stable")
        self._grid = None

    def __len__(self) -> int:
        if self._frozen is not None:
            return self._frozen.shape[0]
        return len(self._rows) + sum(c.shape[0] for c in self._chunks)

    def nbytes(self) -> int:
        return len(self) * self.width * 8

    def index_nbytes(self) -> int:
        if self._order is None:
            return 0
        return int(self._order.nbytes)


class MemoryFeatureStore(FeatureStore):
    """Numpy-backed feature store (see module docstring)."""

    BACKEND = "memory"
    # frozen numpy arrays are safe to read concurrently; the session
    # layer therefore imposes no lock on this backend
    THREAD_SAFE_READS = True

    def __init__(self) -> None:
        self._tables: Dict[str, _Table] = {
            "drop_points": _Table(_POINT_WIDTH),
            "drop_lines": _Table(_LINE_WIDTH),
            "jump_points": _Table(_POINT_WIDTH),
            "jump_lines": _Table(_LINE_WIDTH),
        }
        self._segments: List = []
        self._meta: Dict[str, float] = {}
        self._closed = False
        _OPEN_STORES.inc()

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #

    def add(self, features: FeatureSet) -> None:
        self._check_open()
        ident = features.pair.as_tuple()
        for p in features.drop_points:
            self._tables["drop_points"].append((p.dt, p.dv) + ident)
        for seg in features.drop_lines:
            self._tables["drop_lines"].append(
                (seg.p.dt, seg.p.dv, seg.q.dt, seg.q.dv) + ident
            )
        for p in features.jump_points:
            self._tables["jump_points"].append((p.dt, p.dv) + ident)
        for seg in features.jump_lines:
            self._tables["jump_lines"].append(
                (seg.p.dt, seg.p.dv, seg.q.dt, seg.q.dv) + ident
            )
        _ROWS_WRITTEN.inc(
            len(features.drop_points) + len(features.drop_lines)
            + len(features.jump_points) + len(features.jump_lines)
        )

    def add_features_bulk(self, batch) -> None:
        """Extend the four tables with the batch's row arrays directly."""
        self._check_open()
        self._tables["drop_points"].extend(batch.drop_points)
        self._tables["drop_lines"].extend(batch.drop_lines)
        self._tables["jump_points"].extend(batch.jump_points)
        self._tables["jump_lines"].extend(batch.jump_lines)
        n = (
            batch.drop_points.shape[0] + batch.drop_lines.shape[0]
            + batch.jump_points.shape[0] + batch.jump_lines.shape[0]
        )
        _ROWS_WRITTEN.inc(n)
        _FLUSH_ROWS.observe(n)

    def add_segments_bulk(self, segments) -> None:
        self._check_open()
        self._segments.extend(segments)

    def finalize(self) -> None:
        self._check_open()
        for table in self._tables.values():
            table.freeze()

    def add_segment(self, segment) -> None:
        self._check_open()
        self._segments.append(segment)

    def load_segments(self) -> List:
        self._check_open()
        return list(self._segments)

    def set_meta_many(self, items: Mapping[str, float]) -> None:
        self._check_open()
        self._meta.update((k, float(v)) for k, v in items.items())

    def get_meta(self, key: str):
        self._check_open()
        return self._meta.get(key)

    # ------------------------------------------------------------------ #
    # reads: block primitives (engine interface)
    # ------------------------------------------------------------------ #
    #
    # Frozen tables already live as contiguous float64 arrays, so a scan
    # is a zero-copy handle and an index probe a binary-search slice of
    # the dt-sorted view — nothing on this backend ever materializes
    # per-row tuples.

    def scan_points_array(self, kind, t_threshold=None, v_threshold=None,
                          cache="warm", guard=None):
        """Full point table as a zero-copy ``(m, 6)`` block; prefiltering
        is left to the executor's vectorized masks (equally fast on
        frozen numpy arrays).

        Reads here are single array slices, so the cooperative-deadline
        contract reduces to one ``tick()`` per call.
        """
        self._check_open()
        if guard is not None:
            guard.tick()
        block = self._tables[f"{kind}_points"].data
        # zero-copy handle: rows are scanned but no bytes are decoded
        obs_context.account(rows_scanned=int(block.shape[0]))
        return block

    def probe_point_index_array(self, kind, t_threshold, v_threshold=None,
                                cache="warm", guard=None):
        """dt-sorted binary-search prune — the B-tree leading-column
        analogue — as a zero-copy slice of the sorted view."""
        self._check_open()
        if guard is not None:
            guard.tick()
        data = self._tables[f"{kind}_points"].sorted_by_dt
        cut = int(np.searchsorted(data[:, 0], t_threshold, side="right"))
        obs_context.account(rows_scanned=cut)
        return data[:cut]

    def scan_lines_array(self, kind, t_threshold=None, v_threshold=None,
                         cache="warm", guard=None):
        self._check_open()
        if guard is not None:
            guard.tick()
        block = self._tables[f"{kind}_lines"].data
        obs_context.account(rows_scanned=int(block.shape[0]))
        return block

    def probe_line_index_array(self, kind, t_threshold, v_threshold=None,
                               cache="warm", guard=None):
        self._check_open()
        if guard is not None:
            guard.tick()
        data = self._tables[f"{kind}_lines"].sorted_by_dt
        cut = int(np.searchsorted(data[:, 0], t_threshold, side="right"))
        obs_context.account(rows_scanned=cut)
        return data[:cut]

    def probe_point_grid(self, kind, t_threshold, v_threshold):
        self._check_open()
        return self._tables[f"{kind}_points"].grid.query(
            kind, t_threshold, v_threshold
        )

    def read_table_rows(self, table: str, start: int = 0,
                        stop: Optional[int] = None) -> np.ndarray:
        """Insertion-order row range as a copy (callers may mutate)."""
        self._check_open()
        if table not in self._tables:
            raise InvalidParameterError(f"unknown feature table {table!r}")
        return self._tables[table].data[start:stop].copy()

    def replace_table_rows(self, table: str, start: int, rows) -> None:
        self._check_open()
        if table not in self._tables:
            raise InvalidParameterError(f"unknown feature table {table!r}")
        self._tables[table].replace(start, rows)

    def sample_points(self, kind: str, n: int) -> Optional[np.ndarray]:
        """Evenly strided (dt, dv) sample of the point table (see base)."""
        self._check_open()
        if kind not in ("drop", "jump"):
            raise InvalidParameterError(f"unknown kind {kind!r}")
        data = self._tables[f"{kind}_points"].data
        if data.shape[0] == 0:
            return None
        step = max(1, data.shape[0] // max(n, 1))
        return data[::step][:n, :2].copy()

    def extreme_feature_dv(self, kind: str) -> Optional[float]:
        """Min (drop) / max (jump) stored Δv across points and lines."""
        self._check_open()
        if kind not in ("drop", "jump"):
            raise InvalidParameterError(f"unknown kind {kind!r}")
        points = self._tables[f"{kind}_points"].data
        lines = self._tables[f"{kind}_lines"].data
        candidates = []
        if points.shape[0]:
            candidates.append(points[:, 1])
        if lines.shape[0]:
            candidates.append(lines[:, 1])
            candidates.append(lines[:, 3])
        if not candidates:
            return None
        stacked = np.concatenate(candidates)
        return float(stacked.min() if kind == "drop" else stacked.max())

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    def counts(self) -> StoreCounts:
        self._check_open()
        return StoreCounts(
            drop_points=len(self._tables["drop_points"]),
            drop_lines=len(self._tables["drop_lines"]),
            jump_points=len(self._tables["jump_points"]),
            jump_lines=len(self._tables["jump_lines"]),
        )

    def feature_bytes(self) -> int:
        return sum(t.nbytes() for t in self._tables.values())

    def index_bytes(self) -> int:
        return sum(t.index_nbytes() for t in self._tables.values())

    def close(self) -> None:
        if not self._closed:
            _OPEN_STORES.dec()
        self._tables = {}
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("store is closed")

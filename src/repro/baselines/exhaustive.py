"""The exhaustive baseline **Exh** (Section 1 / Section 5.2).

Exh stores one row ``(Δt, Δv, t'')`` for every ordered pair of *sampled*
observations whose time span is at most ``w`` — the paper's ``c1 = 3``
columns: time span, difference, and one absolute timestamp identifying
the event (the start is recoverable as ``t'' - Δt``).  A drop search is
the single range query ``Δt <= T AND Δv <= V``.

Two backends mirror the SegDiff stores: SQLite (with a ``(dt, dv)``
B-tree, forced-scan / forced-index plans, warm/cold cache) and an
in-memory numpy table, kept clustered by ``dt`` in the SegDiff memory
store's own table type, so its index probe is the same binary search
and prefix slice.

Note the paper's caveat (Section 5.1): Exh sees only sampled pairs, so
events of the Model G signal that occur *between* samples can escape it —
SegDiff has no such blind spot.  The guarantee tests exercise exactly
that difference.
"""

from __future__ import annotations

import os
import sqlite3
import tempfile
from collections import deque
from typing import Deque, List, Optional, Tuple

import numpy as np

from ..datagen.series import TimeSeries
from ..errors import InvalidParameterError, QueryError, StorageError
from ..storage.memory_store import _Table
from ..types import Event

__all__ = ["ExhIndex"]

_BATCH = 20_000


class ExhIndex:
    """The exhaustive pairwise-difference index.

    Parameters
    ----------
    window:
        Largest supported query time span ``w`` (seconds).
    backend:
        ``"memory"`` (numpy) or ``"sqlite"``.
    path:
        SQLite file path; temporary when omitted.
    """

    def __init__(
        self,
        window: float,
        backend: str = "memory",
        path: Optional[str] = None,
    ) -> None:
        if window <= 0:
            raise InvalidParameterError("window must be positive")
        if backend not in ("memory", "sqlite"):
            raise InvalidParameterError(
                f"backend must be 'memory' or 'sqlite', got {backend!r}"
            )
        self.window = float(window)
        self.backend = backend
        self._recent: Deque[Tuple[float, float]] = deque()
        self._rows: List[Tuple[float, float, float]] = []
        self._table = _Table(3)  # memory backend: (dt, dv, t2) rows
        self._conn: Optional[sqlite3.Connection] = None
        self._indexed = False
        self._closed = False
        self._n_observations = 0
        self._last_t: Optional[float] = None
        if backend == "sqlite":
            if path is None:
                fd, path = tempfile.mkstemp(prefix="exh-", suffix=".sqlite")
                os.close(fd)
                os.unlink(path)
                self._owns_file = True
            else:
                self._owns_file = False
            self.path = path
            self._conn = self._connect()
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS pairs "
                "(dt REAL NOT NULL, dv REAL NOT NULL, t2 REAL NOT NULL)"
            )
            self._indexed = self._index_present()
            self._conn.commit()
        else:
            self.path = None
            self._owns_file = False

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path)
        conn.execute("PRAGMA journal_mode = OFF")
        conn.execute("PRAGMA synchronous = OFF")
        return conn

    def _index_present(self) -> bool:
        rows = self._conn.execute(
            "SELECT name FROM sqlite_master WHERE type='index'"
        ).fetchall()
        return ("idx_pairs",) in rows

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls,
        series: TimeSeries,
        window: float,
        backend: str = "memory",
        path: Optional[str] = None,
    ) -> "ExhIndex":
        """Build and finalize over a whole series."""
        index = cls(window, backend=backend, path=path)
        index.ingest(series)
        index.finalize()
        return index

    def append(self, t: float, v: float) -> None:
        """Stream one observation; materializes its pairs within ``w``."""
        self._check_open()
        if self._last_t is not None and t <= self._last_t:
            raise InvalidParameterError(
                f"timestamps must be strictly increasing (got {t})"
            )
        self._last_t = t
        self._n_observations += 1
        while self._recent and t - self._recent[0][0] > self.window:
            self._recent.popleft()
        for t_prev, v_prev in self._recent:
            self._rows.append((t - t_prev, v - v_prev, t))
        self._recent.append((t, v))
        if self._conn is not None and len(self._rows) >= _BATCH:
            self._flush_sqlite()

    def ingest(self, series: TimeSeries) -> None:
        """Stream a whole series."""
        for t, v in zip(series.times, series.values):
            self.append(float(t), float(v))

    def finalize(self) -> None:
        """Flush rows and build the ``(dt, dv)`` B-tree (SQLite)."""
        self._check_open()
        if self._conn is not None:
            self._flush_sqlite()
            if not self._indexed:
                self._conn.execute(
                    "CREATE INDEX idx_pairs ON pairs(dt, dv)"
                )
                self._conn.execute("ANALYZE")
                self._conn.commit()
                self._indexed = True
        else:
            self._table.extend(
                np.asarray(self._rows, dtype=float).reshape(-1, 3)
            )
            self._table.freeze()
            self._rows = []

    def _flush_sqlite(self) -> None:
        if self._rows:
            self._conn.executemany(
                "INSERT INTO pairs VALUES (?, ?, ?)", self._rows
            )
            self._rows = []
        self._conn.commit()

    # ------------------------------------------------------------------ #
    # search
    # ------------------------------------------------------------------ #

    def search_drops(
        self,
        t_threshold: float,
        v_threshold: float,
        mode: str = "index",
        cache: str = "warm",
    ) -> List[Event]:
        """Sampled-pair events with ``Δt <= T`` and ``Δv <= V``."""
        if not (v_threshold < 0):
            raise InvalidParameterError("drop search requires V < 0")
        return self._search(t_threshold, v_threshold, "drop", mode, cache)

    def search_jumps(
        self,
        t_threshold: float,
        v_threshold: float,
        mode: str = "index",
        cache: str = "warm",
    ) -> List[Event]:
        """Sampled-pair events with ``Δt <= T`` and ``Δv >= V``."""
        if not (v_threshold > 0):
            raise InvalidParameterError("jump search requires V > 0")
        return self._search(t_threshold, v_threshold, "jump", mode, cache)

    def _search(
        self, t_thr: float, v_thr: float, kind: str, mode: str, cache: str
    ) -> List[Event]:
        self._check_open()
        if t_thr <= 0:
            raise InvalidParameterError("T must be positive")
        if t_thr > self.window:
            raise QueryError(
                f"T={t_thr} exceeds the Exh window w={self.window}"
            )
        if mode not in ("index", "scan"):
            raise InvalidParameterError(f"unknown mode {mode!r}")
        if self._conn is not None:
            return self._search_sqlite(t_thr, v_thr, kind, mode, cache)
        return self._search_memory(t_thr, v_thr, kind, mode)

    def _search_sqlite(
        self, t_thr: float, v_thr: float, kind: str, mode: str, cache: str
    ) -> List[Event]:
        if mode == "index" and not self._indexed:
            raise StorageError("index not built; call finalize() first")
        hint = "NOT INDEXED" if mode == "scan" else "INDEXED BY idx_pairs"
        op = "<=" if kind == "drop" else ">="
        sql = (
            f"SELECT dt, dv, t2 FROM pairs {hint} "
            f"WHERE dt <= :T AND dv {op} :V"
        )
        params = {"T": t_thr, "V": v_thr}
        if cache == "cold":
            conn = self._connect()
            try:
                conn.execute("PRAGMA cache_size = -64")
                rows = conn.execute(sql, params).fetchall()
            finally:
                conn.close()
        else:
            rows = self._conn.execute(sql, params).fetchall()
        return [Event(t2 - dt, t2, dv) for dt, dv, t2 in rows]

    def _search_memory(
        self, t_thr: float, v_thr: float, kind: str, mode: str
    ) -> List[Event]:
        if mode == "index":
            data = self._table.prefix(t_thr)
            mask = data[:, 1] <= v_thr if kind == "drop" else data[:, 1] >= v_thr
        else:
            data = self._table.data
            in_t = data[:, 0] <= t_thr
            in_v = data[:, 1] <= v_thr if kind == "drop" else data[:, 1] >= v_thr
            mask = in_t & in_v
        return [Event(t2 - dt, t2, dv) for dt, dv, t2 in data[mask]]

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    @property
    def n_observations(self) -> int:
        return self._n_observations

    def n_pairs(self) -> int:
        """Total materialized rows."""
        self._check_open()
        if self._conn is not None:
            self._flush_sqlite()
            return self._conn.execute("SELECT COUNT(*) FROM pairs").fetchone()[0]
        return len(self._table) + len(self._rows)

    def feature_bytes(self) -> int:
        """Bytes of the pairs table (excluding the index)."""
        self._check_open()
        if self._conn is not None:
            self._flush_sqlite()
            try:
                rows = self._conn.execute(
                    "SELECT SUM(pgsize) FROM dbstat WHERE name = 'pairs'"
                ).fetchone()
                if rows and rows[0]:
                    return int(rows[0])
            except sqlite3.Error:
                pass
            return self.n_pairs() * (3 * 8 + 10)
        return self._table.nbytes() + len(self._rows) * 24

    def index_bytes(self) -> int:
        """Bytes of the ``(dt, dv)`` B-tree."""
        self._check_open()
        if self._conn is not None:
            if not self._indexed:
                return 0
            try:
                rows = self._conn.execute(
                    "SELECT SUM(pgsize) FROM dbstat WHERE name = 'idx_pairs'"
                ).fetchone()
                if rows and rows[0]:
                    return int(rows[0])
            except sqlite3.Error:
                pass
            return self.n_pairs() * (2 * 8 + 12)
        return self._table.index_nbytes()

    def disk_bytes(self) -> int:
        """Features plus index."""
        return self.feature_bytes() + self.index_bytes()

    def close(self) -> None:
        if self._closed:
            return
        if self._conn is not None:
            self._conn.close()
            if self._owns_file and self.path and os.path.exists(self.path):
                os.unlink(self.path)
        self._table = _Table(3)
        self._rows = []
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("index is closed")

    def __enter__(self) -> "ExhIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

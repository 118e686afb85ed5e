"""SQLite-backed feature store — the paper-faithful backend.

The paper stored features in MySQL 5.0 with B-tree indexes and measured
both sequential-scan and index plans, with and without caches.  This store
reproduces all four regimes on SQLite:

* ``mode="scan"`` forces a table scan with ``NOT INDEXED``;
* ``mode="index"`` forces the Section 4.4 B-trees with ``INDEXED BY``;
* ``cache="warm"`` reuses the long-lived connection (page cache primed);
* ``cache="cold"`` opens a fresh connection with a minimal page cache for
  the single query, emulating the paper's flushed-cache runs (the OS page
  cache cannot be flushed portably — DESIGN.md §5.7).

Sizes are measured with the ``dbstat`` virtual table (pages actually used
per table/index) when available, falling back to a row-size model.
"""

from __future__ import annotations

import functools
import os
import sqlite3
import tempfile
import threading
import time
from typing import Callable, Dict, List, Mapping, Optional, TypeVar

from ..core.corners import FeatureSet
from ..core.queries import line_candidate_sql, point_candidate_sql
from ..engine.resilience import RetryPolicy
from ..errors import (
    CorruptionError,
    InvalidParameterError,
    InvalidSegmentError,
    StorageError,
)
from ..obs import context as obs_context
from ..obs.metrics import REGISTRY, ROWS_BUCKETS
from .base import FeatureStore, StoreCounts
from .schema import (
    CREATE_INDEX_SQL,
    CREATE_TABLE_SQL,
    INDEX_NAMES,
    LINE_TABLES,
    META_DDL,
    POINT_TABLES,
    SEGDIFF_TABLES,
    SEGMENTS_DDL,
)

__all__ = ["SqliteFeatureStore"]

_BATCH = 5_000
_T = TypeVar("_T")

_ROWS_WRITTEN = REGISTRY.counter(
    "repro_store_rows_written_total",
    "Feature rows written to a store", {"backend": "sqlite"},
)
_FLUSH_ROWS = REGISTRY.histogram(
    "repro_store_flush_rows",
    "Rows per bulk write reaching a store", {"backend": "sqlite"},
    buckets=ROWS_BUCKETS,
)
_OPEN_STORES = REGISTRY.gauge(
    "repro_store_open", "Feature stores currently open",
    {"backend": "sqlite"},
)
_RETRIES = REGISTRY.counter(
    "repro_sqlite_retries_total",
    "Transient SQLite lock errors that were retried",
)


def _is_transient(exc: BaseException) -> bool:
    """Lock contention errors that a retry can cure."""
    msg = str(exc).lower()
    return "locked" in msg or "busy" in msg


def _typed_read(read: Callable) -> Callable:
    """``read`` raising :class:`StorageError` for what SQLite reports
    about the file, and :class:`CorruptionError` for bytes that do not
    decode: sqlite3 raises a bare ``DatabaseError`` for a malformed
    file, and ``UnicodeDecodeError`` when its message quotes corrupt
    schema bytes; a corrupt record hands back a text or blob where the
    schema says ``REAL``, which the float conversion refuses, or a
    segment that fails validation.  A ``ProgrammingError`` is a misuse
    of the connection, not a fault of the file, and stays itself."""

    @functools.wraps(read)
    def typed(self, *args, **kwargs):
        try:
            return read(self, *args, **kwargs)
        except sqlite3.ProgrammingError:
            raise
        except sqlite3.OperationalError as exc:
            raise StorageError(f"{self.path}: {exc}") from exc
        except (sqlite3.DatabaseError, ValueError, TypeError,
                InvalidSegmentError) as exc:
            raise CorruptionError(f"{self.path}: {exc}") from exc

    return typed


def integrity_problems(path: str) -> List[str]:
    """What ``PRAGMA integrity_check`` finds wrong with the SQLite file
    at ``path``: malformed pages, and index entries that disagree with
    their table rows.  Empty when intact."""
    conn = sqlite3.connect(path)
    try:
        found = conn.execute("PRAGMA integrity_check").fetchall()
        return [why for (why,) in found if why != "ok"]
    except (sqlite3.DatabaseError, UnicodeDecodeError) as exc:
        return [str(exc)]
    finally:
        conn.close()


def _sleep(seconds: float) -> None:
    # resolved through this module's ``time`` so tests can monkeypatch
    # ``sqlite_store.time.sleep`` and observe the backoff schedule
    time.sleep(seconds)


class SqliteFeatureStore(FeatureStore):
    """Feature store over a SQLite file (see module docstring).

    ``path=None`` creates a private temporary database file removed on
    :meth:`close`.  ``busy_timeout`` (seconds) makes SQLite itself wait
    on locked databases; on top of it, transient
    ``sqlite3.OperationalError`` s ("database is locked"/"busy") are
    retried up to ``max_retries`` times with exponential backoff before
    surfacing as :class:`StorageError` — a writer no longer falls over
    because a dashboard reader held the file for a moment.
    """

    BACKEND = "sqlite"
    # reads off the owner thread already get lazy per-thread connections,
    # so the session layer imposes no lock on this backend
    THREAD_SAFE_READS = True

    def __init__(
        self,
        path: Optional[str] = None,
        busy_timeout: float = 5.0,
        max_retries: int = 5,
        flush_rows: int = _BATCH,
    ) -> None:
        if flush_rows < 1:
            raise InvalidParameterError(
                f"flush_rows must be >= 1, got {flush_rows}"
            )
        self.flush_rows = int(flush_rows)
        self.busy_timeout = float(busy_timeout)
        self.max_retries = int(max_retries)
        if path is None:
            fd, path = tempfile.mkstemp(prefix="segdiff-", suffix=".sqlite")
            os.close(fd)
            os.unlink(path)  # let sqlite create it fresh
            self._owns_file = True
        else:
            self._owns_file = False
        self.path = path
        self._owner_thread = threading.get_ident()
        self._conn = self._connect()
        self._buffers: Dict[str, List[tuple]] = {t: [] for t in SEGDIFF_TABLES}
        self._segment_buffer: List[tuple] = []
        self._indexed = False
        self._closed = False
        # SQLite connections are bound to their creating thread; reads
        # from other threads (e.g. a dashboard serving many users) get
        # lazy per-thread connections.  Writes stay owner-thread-only.
        self._read_conns = threading.local()
        self._spawned_conns: List[sqlite3.Connection] = []
        self._spawn_lock = threading.Lock()
        self._retry: Optional[RetryPolicy] = None
        self._create_tables()
        _OPEN_STORES.inc()

    def _connect(self, cross_thread: bool = False) -> sqlite3.Connection:
        # cross_thread connections are used by exactly one reader thread
        # (via thread-local storage) but must be closable by the owner
        conn = sqlite3.connect(
            self.path,
            timeout=self.busy_timeout,
            check_same_thread=not cross_thread,
        )
        try:
            # the default rollback journal (DELETE) is required for
            # crash safety: with journaling OFF a process killed
            # mid-commit leaves a malformed database that no resume can
            # salvage.  synchronous=OFF only skips fsync barriers —
            # safe against process death, not power loss — and keeps
            # the build benchmarks honest.
            conn.execute("PRAGMA journal_mode = DELETE")
            conn.execute("PRAGMA synchronous = OFF")
            conn.execute(
                f"PRAGMA busy_timeout = {int(self.busy_timeout * 1000)}"
            )
        except (sqlite3.DatabaseError, UnicodeDecodeError) as exc:
            conn.close()
            raise StorageError(
                f"{self.path} is not a SQLite database: {exc}"
            ) from exc
        return conn

    def _create_tables(self) -> None:
        try:
            existing = {
                row[0]
                for row in self._conn.execute(
                    "SELECT name FROM sqlite_master WHERE type='table'"
                )
            }
        except (sqlite3.DatabaseError, UnicodeDecodeError) as exc:
            self._conn.close()
            raise StorageError(
                f"{self.path} is not a SQLite database: {exc}"
            ) from exc
        for table, ddl in CREATE_TABLE_SQL.items():
            if table not in existing:
                self._conn.execute(ddl)
        self._conn.execute(SEGMENTS_DDL)
        self._conn.execute(META_DDL)
        self._indexed = self._indexes_present()
        self._conn.commit()

    def _indexes_present(self) -> bool:
        names = {
            row[0]
            for row in self._conn.execute(
                "SELECT name FROM sqlite_master WHERE type='index'"
            )
        }
        return all(idx in names for idx in INDEX_NAMES.values())

    def _retry_policy(self) -> RetryPolicy:
        """The shared :class:`RetryPolicy` sized to ``max_retries``.

        Cached; rebuilt only if ``max_retries`` is changed after
        construction (some tests do).
        """
        attempts = max(1, self.max_retries)
        policy = self._retry
        if policy is None or policy.max_attempts != attempts:
            policy = RetryPolicy(
                max_attempts=attempts,
                base_delay=0.02,
                multiplier=2.0,
                name="sqlite",
                sleep=_sleep,
            )
            self._retry = policy
        return policy

    def _with_retry(self, fn: Callable[[], _T]) -> _T:
        """Run ``fn``, retrying transient lock errors with backoff."""
        return self._retry_policy().run(
            fn,
            catch=(sqlite3.OperationalError,),
            transient=_is_transient,
            wrap=lambda exc, attempts: StorageError(
                f"{self.path}: {exc} (after {attempts} attempt(s))"
            ),
            on_retry=lambda exc: _RETRIES.inc(),
        )

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #

    def add(self, features: FeatureSet) -> None:
        self._check_open()
        ident = features.pair.as_tuple()
        buf = self._buffers
        for p in features.drop_points:
            buf["drop_points"].append((p.dt, p.dv) + ident)
        for seg in features.drop_lines:
            buf["drop_lines"].append(
                (seg.p.dt, seg.p.dv, seg.q.dt, seg.q.dv) + ident
            )
        for p in features.jump_points:
            buf["jump_points"].append((p.dt, p.dv) + ident)
        for seg in features.jump_lines:
            buf["jump_lines"].append(
                (seg.p.dt, seg.p.dv, seg.q.dt, seg.q.dv) + ident
            )
        if any(len(rows) >= self.flush_rows for rows in buf.values()):
            self._flush()

    def add_features_bulk(self, batch) -> None:
        """Queue a whole :class:`FeatureBatch`'s rows for ``executemany``."""
        self._check_open()
        buf = self._buffers
        if batch.drop_points.shape[0]:
            buf["drop_points"].extend(batch.drop_points.tolist())
        if batch.drop_lines.shape[0]:
            buf["drop_lines"].extend(batch.drop_lines.tolist())
        if batch.jump_points.shape[0]:
            buf["jump_points"].extend(batch.jump_points.tolist())
        if batch.jump_lines.shape[0]:
            buf["jump_lines"].extend(batch.jump_lines.tolist())
        if any(len(rows) >= self.flush_rows for rows in buf.values()):
            self._flush()

    def _flush(self) -> None:
        self._flush_segments()
        flushed = 0
        for table, rows in self._buffers.items():
            if not rows:
                continue
            width = 6 if table in POINT_TABLES.values() else 8
            placeholders = ",".join("?" * width)
            self._with_retry(
                lambda: self._conn.executemany(
                    f"INSERT INTO {table} VALUES ({placeholders})", rows
                )
            )
            flushed += len(rows)
            rows.clear()
        if flushed:
            _ROWS_WRITTEN.inc(flushed)
            _FLUSH_ROWS.observe(flushed)
        # no commit here: a buffer flush mid-stream must never create a
        # durable cut, or a crash could persist a segment without the
        # rest of its feature pairs (resume() would not regenerate them);
        # only finalize()/checkpoint boundaries commit

    def _flush_segments(self) -> None:
        if not self._segment_buffer:
            return
        self._with_retry(
            lambda: self._conn.executemany(
                "INSERT INTO segments (t_start, v_start, t_end, v_end) "
                "VALUES (?, ?, ?, ?)",
                self._segment_buffer,
            )
        )
        self._segment_buffer.clear()

    def finalize(self) -> None:
        """Flush pending rows and (re)build the Section 4.4 B-trees."""
        self._check_open()
        self._flush()
        if not self._indexed:

            def build() -> None:
                for ddl in CREATE_INDEX_SQL.values():
                    self._conn.execute(ddl)
                self._conn.execute("ANALYZE")

            self._with_retry(build)
            self._indexed = True
        self._with_retry(self._conn.commit)

    def add_segment(self, segment) -> None:
        """Buffer one segment row; flushed with the feature buffers.

        Buffered rows ride the same bulk ``executemany`` path as feature
        rows and reach durability at exactly the same commit boundaries
        (checkpoint/finalize), so PR 1's atomicity is unchanged.
        """
        self._check_open()
        self._segment_buffer.append(
            (segment.t_start, segment.v_start, segment.t_end, segment.v_end)
        )
        if len(self._segment_buffer) >= self.flush_rows:
            self._flush_segments()

    def add_segments_bulk(self, segments) -> None:
        self._check_open()
        self._segment_buffer.extend(
            (s.t_start, s.v_start, s.t_end, s.v_end) for s in segments
        )
        if len(self._segment_buffer) >= self.flush_rows:
            self._flush_segments()

    @_typed_read
    def load_segments(self) -> list:
        from ..types import DataSegment

        self._check_open()
        self._flush_segments()
        rows = self._conn.execute(
            "SELECT t_start, v_start, t_end, v_end FROM segments "
            "ORDER BY seq"
        ).fetchall()
        return [DataSegment(*row) for row in rows]

    def set_meta_many(self, items: Mapping[str, float]) -> None:
        self._check_open()
        # checkpoint boundaries commit via this path: everything buffered
        # must land in the same transaction as the meta rows
        self._flush()
        rows = [(k, float(v)) for k, v in items.items()]

        def write() -> None:
            self._conn.executemany(
                "INSERT OR REPLACE INTO segdiff_meta VALUES (?, ?)", rows
            )
            self._conn.commit()

        self._with_retry(write)

    @_typed_read
    def get_meta(self, key: str):
        self._check_open()
        row = self._conn.execute(
            "SELECT value FROM segdiff_meta WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else float(row[0])

    def drop_indexes(self) -> None:
        """Remove the B-trees (to measure pure feature size)."""
        self._check_open()
        for idx in INDEX_NAMES.values():
            self._conn.execute(f"DROP INDEX IF EXISTS {idx}")
        self._conn.commit()
        self._indexed = False

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    # -- block primitives (engine interface) ---------------------------- #

    #: fetchmany granularity of the unguarded read path
    _ARRAY_CHUNK = 4096

    @_typed_read
    def _fetch_block(self, sql: str, params: dict, cache: str, guard,
                     width: int):
        """Run one candidate query in the requested cache regime, as
        chunked ``fetchmany`` into ``(m, width)`` float64 blocks.

        Rows are pulled in fixed-size chunks and converted
        chunk-at-a-time into column blocks that concatenate once at the
        end, so no full-result Python row list is ever materialized.
        With a ``guard`` the chunk size is ``guard.check_every`` with a
        deadline tick per chunk — a query never runs more than one chunk
        past its deadline even on a huge result set.
        """
        import numpy as np

        chunk_rows = self._ARRAY_CHUNK if guard is None else guard.check_every

        def fetch(conn):
            cursor = conn.execute(sql, params)
            blocks: list = []
            while True:
                if guard is not None:
                    guard.tick()
                chunk = cursor.fetchmany(chunk_rows)
                if not chunk:
                    break
                blocks.append(
                    np.asarray(chunk, dtype=float).reshape(-1, width)
                )
            if not blocks:
                return np.empty((0, width))
            if len(blocks) == 1:
                return blocks[0]
            return np.concatenate(blocks, axis=0)

        if cache == "cold":
            # a fresh connection with a minimal page cache emulates the
            # paper's flushed-cache runs (DESIGN.md §5.7)
            if threading.get_ident() == self._owner_thread:
                self._with_retry(self._conn.commit)
            conn = self._connect()
            try:
                conn.execute("PRAGMA cache_size = -64")  # 64 KiB only
                result = self._with_retry(lambda: fetch(conn))
            finally:
                conn.close()
        else:
            result = self._with_retry(lambda: fetch(self._reader()))
        obs_context.account(
            rows_scanned=int(result.shape[0]),
            bytes_decoded=int(result.nbytes),
        )
        return result

    def _candidates(self, kind, lines: bool, access: str, t_threshold,
                    v_threshold, cache, guard):
        """The point or line table's candidates on one access path:
        ``NOT INDEXED`` forces the scan, ``INDEXED BY`` the §4.4 B-tree
        (whose ``dt <= :T`` bound is then always part of the SQL)."""
        self._check_open()
        table = (LINE_TABLES if lines else POINT_TABLES)[kind]
        if access == "scan":
            hint = "NOT INDEXED"
        elif not self._indexed:
            raise StorageError("indexes not built; call finalize() first")
        else:
            hint = f"INDEXED BY {INDEX_NAMES[table]}"
        candidate_sql = line_candidate_sql if lines else point_candidate_sql
        sql = candidate_sql(
            kind, table, hint,
            with_t=access == "index" or t_threshold is not None,
            with_v=v_threshold is not None,
        )
        return self._fetch_block(
            sql, {"T": t_threshold, "V": v_threshold}, cache, guard,
            8 if lines else 6,
        )

    def scan_points_array(self, kind, t_threshold=None, v_threshold=None,
                          cache="warm", guard=None):
        return self._candidates(kind, False, "scan", t_threshold,
                                v_threshold, cache, guard)

    def probe_point_index_array(self, kind, t_threshold, v_threshold=None,
                                cache="warm", guard=None):
        return self._candidates(kind, False, "index", t_threshold,
                                v_threshold, cache, guard)

    def scan_lines_array(self, kind, t_threshold=None, v_threshold=None,
                         cache="warm", guard=None):
        return self._candidates(kind, True, "scan", t_threshold,
                                v_threshold, cache, guard)

    def probe_line_index_array(self, kind, t_threshold, v_threshold=None,
                               cache="warm", guard=None):
        return self._candidates(kind, True, "index", t_threshold,
                                v_threshold, cache, guard)

    def _reader(self) -> sqlite3.Connection:
        """The connection to read from in the current thread."""
        if threading.get_ident() == self._owner_thread:
            return self._conn
        conn = getattr(self._read_conns, "conn", None)
        if conn is None:
            conn = self._connect(cross_thread=True)
            self._read_conns.conn = conn
            with self._spawn_lock:
                self._spawned_conns.append(conn)
        return conn

    def _meta_reader(self) -> sqlite3.Connection:
        """The connection for read-only metadata queries (``counts``,
        ``sample_points``, ``extreme_feature_dv``): the planner calls
        them on whatever thread queries, which must not touch the
        owner's connection.  Write buffers are owner-thread state, so
        only the owner flushes them first."""
        if threading.get_ident() == self._owner_thread:
            self._flush()
        return self._reader()

    _TABLE_COLS = {
        "drop_points": ("dt", "dv", "t_d", "t_c", "t_b", "t_a"),
        "jump_points": ("dt", "dv", "t_d", "t_c", "t_b", "t_a"),
        "drop_lines": (
            "dt1", "dv1", "dt2", "dv2", "t_d", "t_c", "t_b", "t_a"
        ),
        "jump_lines": (
            "dt1", "dv1", "dt2", "dv2", "t_d", "t_c", "t_b", "t_a"
        ),
    }

    @_typed_read
    def read_table_rows(self, table: str, start: int = 0,
                        stop: Optional[int] = None):
        """Insertion-order row range via ``ORDER BY rowid``.

        Feature tables are insert-only, so rowids are the dense 1-based
        insertion sequence — exactly the storage order the checksum
        trees are defined over.
        """
        import numpy as np

        self._check_open()
        cols = self._TABLE_COLS.get(table)
        if cols is None:
            raise InvalidParameterError(f"unknown feature table {table!r}")
        self._flush()
        limit = -1 if stop is None else max(0, stop - start)
        rows = self._with_retry(
            lambda: self._conn.execute(
                f"SELECT {', '.join(cols)} FROM {table} "
                "ORDER BY rowid LIMIT ? OFFSET ?",
                (limit, start),
            ).fetchall()
        )
        if not rows:
            return np.empty((0, len(cols)))
        return np.asarray(rows, dtype=float)

    def replace_table_rows(self, table: str, start: int, rows) -> None:
        """Overwrite rows by rowid (repair write path); commits, so a
        repair is durable on its own like a checkpoint."""
        import numpy as np

        self._check_open()
        cols = self._TABLE_COLS.get(table)
        if cols is None:
            raise InvalidParameterError(f"unknown feature table {table!r}")
        self._flush()
        rows = np.asarray(rows, dtype=float).reshape(-1, len(cols))
        total = self._conn.execute(
            f"SELECT COUNT(*) FROM {table}"
        ).fetchone()[0]
        if start < 0 or start + rows.shape[0] > total:
            raise StorageError(
                f"row range [{start}, {start + rows.shape[0]}) outside "
                f"{table} of {total} rows"
            )
        assignments = ", ".join(f"{c} = ?" for c in cols)
        params = [
            tuple(row) + (start + i + 1,)  # rowids are 1-based
            for i, row in enumerate(rows.tolist())
        ]

        def write() -> None:
            self._conn.executemany(
                f"UPDATE {table} SET {assignments} WHERE rowid = ?", params
            )
            self._conn.commit()

        self._with_retry(write)

    @_typed_read
    def sample_points(self, kind: str, n: int):
        """Evenly strided (dt, dv) sample of the point table (see base)."""
        import numpy as np

        self._check_open()
        if kind not in POINT_TABLES:
            raise InvalidParameterError(f"unknown kind {kind!r}")
        conn = self._meta_reader()
        table = POINT_TABLES[kind]
        total = conn.execute(
            f"SELECT COUNT(*) FROM {table}"
        ).fetchone()[0]
        if total == 0:
            return None
        step = max(1, total // max(n, 1))
        rows = conn.execute(
            f"SELECT dt, dv FROM {table} WHERE rowid % ? = 0 LIMIT ?",
            (step, n),
        ).fetchall()
        if not rows:  # tiny tables whose rowids all miss the stride
            rows = conn.execute(
                f"SELECT dt, dv FROM {table} LIMIT ?", (n,)
            ).fetchall()
        return np.asarray(rows, dtype=float)

    @_typed_read
    def extreme_feature_dv(self, kind: str):
        """Min (drop) / max (jump) stored Δv across points and lines."""
        self._check_open()
        if kind not in POINT_TABLES:
            raise InvalidParameterError(f"unknown kind {kind!r}")
        conn = self._meta_reader()
        agg = "MIN" if kind == "drop" else "MAX"
        p = conn.execute(
            f"SELECT {agg}(dv) FROM {POINT_TABLES[kind]}"
        ).fetchone()[0]
        l1, l2 = conn.execute(
            f"SELECT {agg}(dv1), {agg}(dv2) FROM {LINE_TABLES[kind]}"
        ).fetchone()
        values = [v for v in (p, l1, l2) if v is not None]
        if not values:
            return None
        return float(min(values) if kind == "drop" else max(values))

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    @_typed_read
    def counts(self) -> StoreCounts:
        self._check_open()
        conn = self._meta_reader()
        get = lambda t: conn.execute(  # noqa: E731
            f"SELECT COUNT(*) FROM {t}"
        ).fetchone()[0]
        return StoreCounts(
            drop_points=get("drop_points"),
            drop_lines=get("drop_lines"),
            jump_points=get("jump_points"),
            jump_lines=get("jump_lines"),
        )

    def check(self) -> List[CorruptionError]:
        """:func:`integrity_problems` of the file, one
        :class:`CorruptionError` each — the checksum trees cover the
        tables, not their indexes; empty when intact."""
        self._check_open()
        return [CorruptionError(f"{self.path}: {why}")
                for why in integrity_problems(self.path)]

    def _dbstat_bytes(self) -> Optional[Dict[str, int]]:
        try:
            rows = self._conn.execute(
                "SELECT name, SUM(pgsize) FROM dbstat GROUP BY name"
            ).fetchall()
        except sqlite3.Error:
            return None
        return {name: int(size) for name, size in rows}

    def feature_bytes(self) -> int:
        self._check_open()
        self._flush()
        sizes = self._dbstat_bytes()
        if sizes is not None:
            return sum(sizes.get(t, 0) for t in SEGDIFF_TABLES)
        counts = self.counts()
        # fallback model: 8 bytes per column + ~14 bytes row overhead
        return (counts.drop_points + counts.jump_points) * (6 * 8 + 14) + (
            counts.drop_lines + counts.jump_lines
        ) * (8 * 8 + 14)

    def index_bytes(self) -> int:
        self._check_open()
        if not self._indexed:
            return 0
        sizes = self._dbstat_bytes()
        if sizes is not None:
            return sum(sizes.get(i, 0) for i in INDEX_NAMES.values())
        counts = self.counts()
        return (counts.drop_points + counts.jump_points) * (2 * 8 + 12) + (
            counts.drop_lines + counts.jump_lines
        ) * (4 * 8 + 12)

    def close(self) -> None:
        if self._closed:
            return
        with self._spawn_lock:
            for conn in self._spawned_conns:
                try:
                    conn.close()
                except sqlite3.Error:  # already closed by its thread
                    pass
            self._spawned_conns = []
        self._conn.close()
        self._closed = True
        _OPEN_STORES.dec()
        if self._owns_file and os.path.exists(self.path):
            os.unlink(self.path)

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("store is closed")

"""Abstract interface every feature store implements."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Mapping, Optional, Union

from ..core.corners import FeatureSet
from ..core.queries import DropQuery, JumpQuery
from ..types import SegmentPair

__all__ = ["FeatureStore", "StoreCounts", "Query"]

Query = Union[DropQuery, JumpQuery]


@dataclass(frozen=True)
class StoreCounts:
    """Row counts per feature table."""

    drop_points: int
    drop_lines: int
    jump_points: int
    jump_lines: int

    @property
    def total(self) -> int:
        return (
            self.drop_points + self.drop_lines + self.jump_points + self.jump_lines
        )


class FeatureStore(abc.ABC):
    """Persistent home of the ε-shifted features of one SegDiff index.

    Lifecycle: ``add()`` feature sets while extraction runs, ``finalize()``
    once (builds indexes / freezes arrays), then ``search()`` any number of
    times.  ``add()`` after ``finalize()`` reopens the store for appends;
    backends must make that legal (it is how incremental-ingest
    experiments grow the index group by group).

    Search semantics live in :mod:`repro.engine`; a store contributes
    only the four **block primitives** below (``scan_points_array``,
    ``probe_point_index_array``, ``scan_lines_array``,
    ``probe_line_index_array``) — ``(m, k)`` float64 blocks are the only
    way candidate rows leave a store.
    """

    #: Cost-model key (see ``repro.engine.cost.BACKEND_COSTS``).
    BACKEND = "generic"
    #: Whether concurrent reads need no external serialization.
    THREAD_SAFE_READS = False

    @abc.abstractmethod
    def add(self, features: FeatureSet) -> None:
        """Persist one parallelogram's features."""

    def add_features_bulk(self, batch) -> None:
        """Persist a :class:`~repro.core.corners.FeatureBatch` of features.

        Backends override this with a genuinely bulk write (executemany,
        page-packed appends, array extends); the default falls back to
        row-at-a-time :meth:`add` so any store stays correct.  Durability
        semantics are those of :meth:`add`: nothing is committed until
        the next checkpoint/finalize.
        """
        for features in batch.iter_feature_sets():
            self.add(features)

    def add_segments_bulk(self, segments) -> None:
        """Record a run of data segments (see :meth:`add_segment`)."""
        for segment in segments:
            self.add_segment(segment)

    @abc.abstractmethod
    def finalize(self) -> None:
        """Flush buffers and build (or rebuild) secondary indexes."""

    def search(
        self, query: Query, mode: str = "index", cache: str = "warm"
    ) -> List[SegmentPair]:
        """Run a drop/jump search with every operator on access path
        ``mode`` (``"index"``, ``"scan"``, or ``"grid"`` where the backend
        has one) in cache regime ``cache`` (``"warm"`` / ``"cold"``).

        Returns distinct segment pairs (the union of the point and line
        query results, Section 4.4) through the engine executor; callers
        wanting plan choice, batching or EXPLAIN use
        :class:`repro.engine.QuerySession`.
        """
        from ..engine.executor import execute
        from ..engine.plan import POINT_ACCESS_PATHS, build_plan
        from ..errors import InvalidParameterError

        if mode not in POINT_ACCESS_PATHS:
            raise InvalidParameterError(
                f"mode must be one of {POINT_ACCESS_PATHS}, got {mode!r}"
            )
        if cache not in ("warm", "cold"):
            raise InvalidParameterError(
                f"cache must be 'warm' or 'cold', got {cache!r}"
            )
        plan = build_plan(query, point_access=mode)
        return execute(plan, self, cache=cache).pairs

    # ------------------------------------------------------------------ #
    # block primitives (the engine's only read interface)
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def scan_points_array(
        self,
        kind: str,
        t_threshold: Optional[float] = None,
        v_threshold: Optional[float] = None,
        cache: str = "warm",
        guard=None,
    ):
        """Sequential pass over the ``kind`` point table.

        Returns an ``(m, 6)`` float64 block with columns
        ``dt, dv, t_d, t_c, t_b, t_a``.  The thresholds are *pushdown
        hints*: a backend may pre-filter with them when that is cheap,
        but must never drop a matching row (the executor re-applies the
        exact predicate).  ``None`` means "no pre-filtering" — the
        batched grid path relies on that to share one pass across
        queries.

        ``guard`` (a :class:`repro.engine.resilience.QueryGuard`, or
        ``None``) makes the pass *cooperative*: the read must call
        ``guard.tick()`` at least once per chunk so a query never runs
        more than one chunk past its deadline.
        """

    @abc.abstractmethod
    def probe_point_index_array(
        self,
        kind: str,
        t_threshold: float,
        v_threshold: Optional[float] = None,
        cache: str = "warm",
        guard=None,
    ):
        """Point candidates with ``dt <= t_threshold`` via the index.

        Same block layout, pushdown and ``guard`` contract as
        :meth:`scan_points_array`.  Raises
        :class:`~repro.errors.StorageError` when the index has not been
        built (call ``finalize()`` first).
        """

    @abc.abstractmethod
    def scan_lines_array(
        self,
        kind: str,
        t_threshold: Optional[float] = None,
        v_threshold: Optional[float] = None,
        cache: str = "warm",
        guard=None,
    ):
        """Sequential pass over the ``kind`` line table.

        Returns an ``(m, 8)`` float64 block with columns
        ``dt1, dv1, dt2, dv2, t_d, t_c, t_b, t_a``.  Same ``guard``
        contract as :meth:`scan_points_array`.
        """

    @abc.abstractmethod
    def probe_line_index_array(
        self,
        kind: str,
        t_threshold: float,
        v_threshold: Optional[float] = None,
        cache: str = "warm",
        guard=None,
    ):
        """Line candidates with ``dt1 <= t_threshold`` via the index, as
        an ``(m, 8)`` block."""

    def probe_point_grid(self, kind: str, t_threshold: float,
                         v_threshold: float):
        """Point candidates via a 2-D grid (optional access path)."""
        from ..errors import InvalidParameterError

        raise InvalidParameterError(
            f"the {type(self).__name__} backend has no grid access path"
        )

    # ------------------------------------------------------------------ #
    # row-range access (anti-entropy interface)
    # ------------------------------------------------------------------ #

    def read_table_rows(self, table: str, start: int = 0,
                        stop: Optional[int] = None):
        """Rows ``[start, stop)`` of one feature table in **storage
        order** (insertion order), as a 2-D float array.

        This is the checksum/anti-entropy read path: two replicas built
        by the same deterministic pipeline must return bit-identical
        rows here, so checksum trees over this view compare equal iff
        the stores hold the same features.  The default routes through
        the scan primitives, which return insertion order on every
        bundled backend; a backend whose scan order differs must
        override.
        """
        from ..errors import InvalidParameterError

        kind, _, group = table.partition("_")
        if kind not in ("drop", "jump") or group not in ("points", "lines"):
            raise InvalidParameterError(f"unknown feature table {table!r}")
        scan = (
            self.scan_points_array if group == "points"
            else self.scan_lines_array
        )
        return scan(kind)[start:stop]

    def replace_table_rows(self, table: str, start: int, rows) -> None:
        """Overwrite rows ``[start, start + len(rows))`` of ``table`` in
        storage order — the anti-entropy *repair* write path.

        Optional: backends that cannot address rows positionally leave
        the default, which raises :class:`~repro.errors.StorageError`;
        repair then falls back to a full rebuild from the peer.
        """
        from ..errors import StorageError

        raise StorageError(
            f"the {type(self).__name__} backend does not support in-place "
            "row replacement; rebuild from a peer instead"
        )

    @abc.abstractmethod
    def counts(self) -> StoreCounts:
        """Current row counts."""

    @abc.abstractmethod
    def add_segment(self, segment) -> None:
        """Record one data segment so a reopened index can rebuild its
        approximation (called by the index alongside feature adds)."""

    @abc.abstractmethod
    def load_segments(self) -> list:
        """All recorded data segments in ingestion order."""

    @abc.abstractmethod
    def set_meta_many(self, items: Mapping[str, float]) -> None:
        """Persist scalars of build metadata (epsilon, window, checksum
        digests, ...) as **one** durable unit, in ``items`` order: one
        checkpoint boundary, committing every buffered write with it."""

    def set_meta(self, key: str, value: float) -> None:
        """Persist one scalar of build metadata."""
        self.set_meta_many({key: value})

    @abc.abstractmethod
    def get_meta(self, key: str):
        """Read back build metadata; ``None`` when absent."""

    @abc.abstractmethod
    def sample_points(self, kind: str, n: int):
        """A deterministic (dt, dv) row sample from the ``kind`` point
        table as an ``(m, 2)`` numpy array (``m <= n``), or ``None`` when
        the table is empty.  Used by the adaptive query planner."""

    @abc.abstractmethod
    def extreme_feature_dv(self, kind: str) -> "float | None":
        """The most extreme stored Δv for the search type: the minimum
        over drop features, the maximum over jump features; ``None`` when
        no features of that type exist.  Used by top-k search to bound
        its threshold sweep."""

    @abc.abstractmethod
    def feature_bytes(self) -> int:
        """Bytes used by the feature tables (excluding indexes)."""

    @abc.abstractmethod
    def index_bytes(self) -> int:
        """Bytes used by secondary indexes."""

    def disk_bytes(self) -> int:
        """Features plus indexes — the paper's 'disk size'."""
        return self.feature_bytes() + self.index_bytes()

    @abc.abstractmethod
    def close(self) -> None:
        """Release resources; the store must not be used afterwards."""

    def __enter__(self) -> "FeatureStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

"""The user-facing SegDiff index.

:class:`SegDiffIndex` wires the pipeline together::

    observations --> SlidingWindowSegmenter --> FeatureExtractor --> FeatureStore
                                                                        |
    search_drops(T, V) / search_jumps(T, V)  <--  point + line queries --+

Typical use::

    index = SegDiffIndex.build(series, epsilon=0.2, window=8 * 3600)
    pairs = index.search_drops(t_threshold=3600, v_threshold=-3.0)

or streaming::

    index = SegDiffIndex(epsilon=0.2, window=8 * 3600)
    for t, v in live_feed:
        index.append(t, v)
        ...
        index.checkpoint()          # searchable mid-stream
    index.finalize()                # seal the stream
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..datagen.model import PiecewiseLinearSignal
from ..datagen.series import TimeSeries
from ..engine.cost import CostModel
from ..engine.session import ExplainReport, QuerySession
from ..errors import InvalidParameterError, QueryError, StorageError
from ..obs.metrics import REGISTRY
from ..obs.tracing import span
from ..storage.base import FeatureStore, StoreCounts
from ..storage.memory_store import MemoryFeatureStore
from ..storage.sqlite_store import SqliteFeatureStore
from ..types import DataSegment, SegmentPair
from .extraction import ExtractionStats
from .queries import DropQuery, JumpQuery
from .results import SearchHit, witness_event
from .stream import StreamWriter

__all__ = ["SegDiffIndex", "IndexStats", "DEFAULT_BATCH_SIZE"]

#: Observations consumed per vectorized segmentation/extraction round.
DEFAULT_BATCH_SIZE = 65_536

_EPISODE_SECONDS = REGISTRY.histogram(
    "repro_build_episode_seconds",
    "Wall time to segment and extract one gap-free episode "
    "(batched build path)",
)


@dataclass(frozen=True)
class IndexStats:
    """A snapshot of the index's size and composition."""

    epsilon: float
    window: float
    n_observations: int
    n_segments: int
    compression_rate: float
    store_counts: StoreCounts
    feature_bytes: int
    index_bytes: int
    extraction: ExtractionStats

    @property
    def disk_bytes(self) -> int:
        return self.feature_bytes + self.index_bytes


class SegDiffIndex:
    """Build-once (or streaming), query-many index for drop/jump search.

    Parameters
    ----------
    epsilon:
        Error tolerance ε of Definition 2; results are exact up to the
        Theorem 1 ``2ε`` bound.
    window:
        The longest supported query time span ``w`` (seconds).
    store:
        A :class:`FeatureStore`; defaults to an in-memory store.  Use
        :meth:`build` with ``backend="sqlite"`` for the on-disk backend.
    emit_self_pairs:
        See :class:`FeatureExtractor`; on by default.
    """

    def __init__(
        self,
        epsilon: float,
        window: float,
        store: Optional[FeatureStore] = None,
        emit_self_pairs: bool = True,
        resilience=None,
        name: Optional[str] = None,
    ) -> None:
        self.epsilon = float(epsilon)
        self.window = float(window)
        self.store = store if store is not None else MemoryFeatureStore()
        #: Optional :class:`repro.engine.ResiliencePolicy` applied to the
        #: lazily-created query session (deadlines, admission, breaker).
        self.resilience = resilience
        #: Distinguishes this index's breaker gauge from other indexes'
        #: in a multi-index process (e.g. a shard/replica id).
        self.name = name
        self._writer = StreamWriter(
            epsilon, window, self.store, emit_self_pairs=emit_self_pairs
        )
        self._segments: List[DataSegment] = []
        self._sealed = False
        self._session: Optional[QuerySession] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls,
        series: TimeSeries,
        epsilon: float,
        window: float,
        backend: str = "memory",
        path: Optional[str] = None,
        emit_self_pairs: bool = True,
        batch_size: Optional[int] = None,
        max_gap: Optional[float] = None,
        resilience=None,
        name: Optional[str] = None,
    ) -> "SegDiffIndex":
        """Build and finalize an index over a whole series.

        ``backend`` is ``"memory"``, ``"sqlite"``, or ``"minidb"`` (the
        instrumented page-based engine); ``path`` names the backing file
        (temporary when omitted).  ``resilience`` (a
        :class:`repro.engine.ResiliencePolicy`) and ``name`` (the breaker
        gauge label, e.g. a shard id) configure the query session.

        The build runs the batched fast path (bit-for-bit equivalent to
        streaming :meth:`append`): ``batch_size`` observations per
        vectorized round, with an episode break wherever consecutive
        samples are more than ``max_gap`` apart.  ``batch_size=0`` forces
        the scalar reference path.
        """
        if backend == "memory":
            store: FeatureStore = MemoryFeatureStore()
        elif backend == "sqlite":
            store = SqliteFeatureStore(path)
        elif backend == "minidb":
            from ..storage.minidb import MiniDbFeatureStore

            store = MiniDbFeatureStore(path)
        else:
            raise InvalidParameterError(
                "backend must be 'memory', 'sqlite' or 'minidb', "
                f"got {backend!r}"
            )
        index = cls(
            epsilon, window, store, emit_self_pairs=emit_self_pairs,
            resilience=resilience, name=name,
        )
        with ExitStack() as failed, span("index.build") as bs:
            failed.callback(index.close)
            bs.set_attribute("backend", backend)
            bs.set_attribute("observations", len(series.times))
            with span("index.ingest"):
                if batch_size == 0:
                    # scalar reference path
                    if max_gap is not None:
                        index.ingest_episodes(series, max_gap)
                    else:
                        index.ingest(series)
                else:
                    index.ingest_episodes_fast(
                        series,
                        max_gap=max_gap,
                        batch_size=batch_size or DEFAULT_BATCH_SIZE,
                    )
            index.finalize()
            bs.set_attribute("segments", len(index._segments))
            failed.pop_all()
        return index

    @staticmethod
    def _open_store(path: str) -> FeatureStore:
        """Open a file-backed store, sniffing the format from its header."""
        try:
            with open(path, "rb") as fh:
                magic = fh.read(16)
        except OSError:
            magic = b""
        if magic.startswith(b"SQLite format 3"):
            return SqliteFeatureStore(path)
        from ..storage.minidb import MiniDbFeatureStore

        return MiniDbFeatureStore(path)

    @classmethod
    def open(
        cls, path: str, resilience=None, name: Optional[str] = None
    ) -> "SegDiffIndex":
        """Reopen a previously built, finalized index file.

        The backend (SQLite or MiniDB) is sniffed from the file header.
        The file is self-describing: build parameters and the data
        segments are stored alongside the features, so the reopened index
        can search, refine witnesses against its approximation, and
        report stats.  It cannot be extended (it is sealed).
        ``resilience`` (a :class:`repro.engine.ResiliencePolicy`)
        configures deadlines/admission/breaker on the query session.
        """
        store = cls._open_store(path)
        epsilon = store.get_meta("epsilon")
        window = store.get_meta("window")
        if epsilon is None or window is None:
            store.close()
            raise StorageError(
                f"{path} is not a finalized SegDiff index (missing metadata)"
            )
        sealed = store.get_meta("sealed")
        if sealed is not None and not sealed:
            store.close()
            raise StorageError(
                f"{path} is a mid-stream checkpoint, not a finalized index; "
                "use SegDiffIndex.resume() to continue it"
            )
        index = cls(epsilon, window, store, resilience=resilience, name=name)
        index._segments = store.load_segments()
        n_obs = store.get_meta("n_observations")
        index._writer.n_observations = int(n_obs) if n_obs is not None else 0
        index._sealed = True
        return index

    @staticmethod
    def open_live(directory: str, **kw):
        """Open (resume) a :class:`~repro.core.live.LiveIndex` partition
        directory — the streaming counterpart of :meth:`open`.

        Where :meth:`open` loads one sealed index file, ``open_live``
        loads a time-partitioned directory created by
        :class:`~repro.core.live.LiveIndex`: sealed partitions plus a
        generation-stamped manifest, resumable at its watermark and
        queryable with snapshot isolation while ingest continues.
        Keyword arguments are the ``LiveIndex.open`` policy knobs
        (``seal_rows``, ``ttl``, ...).
        """
        from .live import LiveIndex

        return LiveIndex.open(directory, **kw)

    @classmethod
    def resume(cls, path: str, backend: str = "sqlite") -> "SegDiffIndex":
        """Reopen a mid-stream checkpoint and continue ingesting.

        The returned index has the stored segments reloaded, the
        extractor's pairing history re-primed (without re-emitting
        features), and the segmenter re-anchored at the last stored
        segment's endpoint — unless the checkpoint was taken at an
        episode break (:meth:`mark_gap`), in which case the stream
        continues with a fresh episode.  Re-feeding observations at or
        before the checkpoint boundary is safe: :meth:`append` silently
        skips ``t <= resume_t`` so a producer may simply replay its
        source from a little before the crash.

        Observations that arrived after the last :meth:`checkpoint` were
        only in memory and are re-ingested from the replayed stream;
        ``n_observations`` restarts from the checkpointed count.
        """
        if backend == "sqlite":
            store: FeatureStore = SqliteFeatureStore(path)
        elif backend == "minidb":
            from ..storage.minidb import MiniDbFeatureStore

            store = MiniDbFeatureStore(path)
        else:
            raise InvalidParameterError(
                f"backend must be 'sqlite' or 'minidb', got {backend!r}"
            )
        epsilon = store.get_meta("epsilon")
        window = store.get_meta("window")
        if epsilon is None or window is None:
            store.close()
            raise StorageError(
                f"{path} has no SegDiff checkpoint metadata; was "
                "checkpoint() ever called?"
            )
        if store.get_meta("sealed"):
            store.close()
            raise StorageError(
                f"{path} is sealed; use SegDiffIndex.open() to search it"
            )
        index = cls(epsilon, window, store)
        index._segments = store.load_segments()
        n_obs = store.get_meta("n_observations")
        index._writer.resume(
            index._segments,
            int(n_obs) if n_obs is not None else 0,
            break_t=store.get_meta("episode_break"),
        )
        return index

    def append(self, t: float, v: float) -> None:
        """Stream one observation into the index.

        Observations at or before the resume point are skipped; a
        non-finite value or a time not after the previous observation
        raises :class:`~repro.errors.InvalidSeriesError` and changes
        nothing.
        """
        self._check_writable()
        t, v = float(t), float(v)
        if self._writer.admit_one(t, v):
            self._register(self._writer.push(t, v))

    def _register(self, segments: List[DataSegment]) -> None:
        if segments:
            self._segments.extend(segments)
            # the store grew: selectivity samples drawn before this
            # append must not steer post-append plan choices
            self._invalidate_plans()

    def _check_writable(self) -> None:
        if self._sealed:
            raise StorageError("index is sealed; build a new one to extend")

    def _invalidate_plans(self) -> None:
        if self._session is not None:
            self._session.invalidate()

    def ingest(self, series: TimeSeries) -> None:
        """Stream a whole series into the index."""
        for t, v in zip(series.times, series.values):
            self.append(float(t), float(v))

    def mark_gap(self) -> None:
        """Start a new *episode* at the current stream position.

        By default Model G interpolates across any sampling gap, so a
        long outage would be treated as one slow linear drift and events
        could be reported spanning it.  Call ``mark_gap()`` when the
        stream resumes after an outage you do *not* want bridged: the
        open segment is flushed, the pairing history is cleared, and no
        future result will span the gap.  Searching is unaffected
        otherwise.
        """
        self._check_writable()
        self._register(self._writer.gap())

    def ingest_episodes(
        self, series: TimeSeries, max_gap: float
    ) -> int:
        """Stream a series, inserting a gap break wherever consecutive
        samples are more than ``max_gap`` seconds apart.

        Returns the number of gaps broken.  Note that with episodes the
        index's :meth:`approximation` is only piecewise-defined per
        episode; cross-gap values are never used for search results.
        """
        if max_gap <= 0:
            raise InvalidParameterError("max_gap must be positive")
        last_t: Optional[float] = None
        gaps = 0
        for t, v in zip(series.times, series.values):
            if last_t is not None and t - last_t > max_gap:
                self.mark_gap()
                gaps += 1
            self.append(float(t), float(v))
            last_t = float(t)
        return gaps

    # ------------------------------------------------------------------ #
    # batched fast path
    # ------------------------------------------------------------------ #

    def ingest_array(
        self, ts, vs, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> None:
        """Ingest time/value arrays through the vectorized fast path.

        Bit-for-bit equivalent to :meth:`append` over every observation —
        same segments, same stored feature rows, same stats — but
        segmentation, the Table 2 corner analysis, and store writes all
        run batched.  Assumes a gap-free stream (one episode); use
        :meth:`ingest_episodes_fast` to break on gaps.
        """
        self._check_writable()
        if batch_size < 1:
            raise InvalidParameterError("batch_size must be >= 1")
        ts, vs = self._writer.admit(ts, vs)
        for closed in self._writer.push_array(ts, vs, batch_size):
            self._register(closed)

    def ingest_episodes_fast(
        self,
        series: TimeSeries,
        max_gap: Optional[float] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> int:
        """Batched :meth:`ingest_episodes`: split on gaps, ingest each
        episode through the fast path.  Returns the number of gaps."""
        ts = np.ascontiguousarray(series.times, dtype=float)
        vs = np.ascontiguousarray(series.values, dtype=float)
        episodes = _split_episodes(ts, vs, max_gap)
        for i, (ets, evs) in enumerate(episodes):
            if i:
                self.mark_gap()
            t0 = time.perf_counter()
            self.ingest_array(ets, evs, batch_size=batch_size)
            _EPISODE_SECONDS.observe(time.perf_counter() - t0)
        return len(episodes) - 1

    def checkpoint(self) -> None:
        """Make everything segmented so far searchable (mid-stream).

        The segmenter's open tail — observations not yet closed into a
        segment — stays pending until more data arrives or the index is
        finalized.
        """
        with span("index.checkpoint"):
            self.store.finalize()
            self._invalidate_plans()
            self._write_meta()

    def finalize(self) -> None:
        """Seal the stream: flush the tail segment and build indexes."""
        if self._sealed:
            return
        with span("index.finalize"):
            self._register(self._writer.finish())
            self.store.finalize()
            self._sealed = True
            self._invalidate_plans()
            self._write_meta()

    def _write_meta(self) -> None:
        meta = {
            "epsilon": self.epsilon,
            "window": self.window,
            # a checkpoint may only claim observations that closed
            # segments cover; the open tail is re-ingested from the
            # replayed stream
            "n_observations": float(self._writer.n_obs_covered),
            "sealed": 1.0 if self._sealed else 0.0,
        }
        if self._writer.break_t is not None:
            # written only at a break; a later checkpoint leaves it stale,
            # which resume() recognises by a segment ending after it
            meta["episode_break"] = self._writer.break_t
        self.store.set_meta_many(meta)

    # ------------------------------------------------------------------ #
    # anti-entropy checksums
    # ------------------------------------------------------------------ #

    def seal_checksums(self, leaf_size: Optional[int] = None) -> dict:
        """Compute and persist the anti-entropy checksum trees.

        Checksums every feature table in storage order into a
        Merkle-style tree (:mod:`repro.storage.checksum`) and persists
        the trees in store meta, so ``verify()`` can later compare the
        store against its recorded state or a replica in O(log n)
        checksum comparisons.  Called by the sharding layer after
        :meth:`finalize`; opt-in here because the extra full read +
        meta writes are pure overhead for throwaway indexes.
        """
        from ..storage import checksum as cks

        kw = {} if leaf_size is None else {"leaf_size": leaf_size}
        trees = cks.store_trees(self.store, **kw)
        cks.persist_trees(self.store, trees)
        return trees

    def checksums(self) -> Optional[dict]:
        """The persisted checksum trees, or ``None`` if never sealed."""
        from ..storage import checksum as cks

        return cks.load_trees(self.store)

    # ------------------------------------------------------------------ #
    # search
    # ------------------------------------------------------------------ #

    def search_drops(
        self, t_threshold: float, v_threshold: float, mode: str = "index", **kw
    ) -> List[SegmentPair]:
        """All segment pairs containing a drop of ``<= v_threshold`` within
        ``t_threshold`` seconds (Theorem 1 guarantees apply).

        ``mode`` is ``"index"``, ``"scan"``, ``"grid"`` (backends with a
        grid access path), or ``"auto"`` (cost-modelled per-operator plan
        choice — see :class:`repro.engine.cost.CostModel`).
        """
        query = DropQuery(t_threshold, v_threshold)
        self._validate_query(t_threshold)
        return self.session.search(query, mode=mode, **kw)

    def search_jumps(
        self, t_threshold: float, v_threshold: float, mode: str = "index", **kw
    ) -> List[SegmentPair]:
        """All segment pairs containing a jump of ``>= v_threshold`` within
        ``t_threshold`` seconds."""
        query = JumpQuery(t_threshold, v_threshold)
        self._validate_query(t_threshold)
        return self.session.search(query, mode=mode, **kw)

    def search_batch(
        self, queries: List, mode: str = "auto", cache: str = "warm"
    ) -> List[List[SegmentPair]]:
        """Answer a whole (T, V) grid of queries in one shared pass per
        operator (see :meth:`repro.engine.QuerySession.search_batch`)."""
        for q in queries:
            self._validate_query(q.t_threshold)
        return self.session.search_batch(queries, mode=mode, cache=cache)

    def search_deepest_drops(
        self,
        k: int,
        t_threshold: float,
        data: Optional[TimeSeries] = None,
        mode: str = "index",
    ) -> List[SearchHit]:
        """The ``k`` periods with the deepest drops within ``t_threshold``.

        No threshold ``V`` is needed: the method sweeps the threshold from
        the deepest stored feature upward (halving its magnitude) until at
        least ``k`` periods match, widens once more by the ``2ε``
        tolerance so no genuinely-deeper period can be ranked out, then
        refines every candidate with its exact witness event and returns
        the ``k`` deepest.  Witnesses are computed against ``data`` when
        given, else against the index's own approximation (exact up to
        ``ε/2``).
        """
        if k < 1:
            raise InvalidParameterError("k must be >= 1")
        self._validate_query(t_threshold)
        floor = self.store.extreme_feature_dv("drop")
        if floor is None or floor >= 0:
            return []

        v = floor
        pairs: List[SegmentPair] = []
        while True:
            pairs = self.session.search(DropQuery(t_threshold, v), mode=mode)
            if len(pairs) >= k or v >= -1e-9:
                break
            v = max(v / 2.0, -1e-9)
        # widen by 2*epsilon: a pair whose witness is within tolerance of
        # the current threshold might still out-rank a found one
        v_wide = min(v + 2.0 * self.epsilon, -1e-9)
        if v_wide > v:
            pairs = self.session.search(
                DropQuery(t_threshold, v_wide), mode=mode
            )

        reference: object = data if data is not None else self.approximation()
        query = DropQuery(t_threshold, min(v_wide, -1e-9))
        hits = [
            SearchHit(pair, witness_event(pair, reference, query))
            for pair in pairs
        ]
        hits = [h for h in hits if h.witness is not None and h.witness.dv < 0]
        hits.sort(key=lambda h: h.witness.dv)
        return hits[:k]

    def search_drops_refined(
        self,
        t_threshold: float,
        v_threshold: float,
        data: TimeSeries,
        verified_only: bool = False,
        mode: str = "index",
    ) -> List[SearchHit]:
        """Drop search plus witness refinement against the raw series.

        Executes as one engine plan ending in a ``RefineOp``."""
        query = DropQuery(t_threshold, v_threshold)
        self._validate_query(t_threshold)
        return self.session.search(
            query, mode=mode, data=data, verified_only=verified_only
        )

    def explain(
        self, kind: str, t_threshold: float, v_threshold: float
    ) -> dict:
        """Describe how a search would be executed, without running it.

        Returns the planner's selectivity estimate, the plan ``mode="auto"``
        would choose, the rows each plan would have to consider, and the
        index parameters in play — the debugging companion to the paper's
        scan-vs-index discussion.
        """
        if kind not in ("drop", "jump"):
            raise InvalidParameterError(f"unknown search kind {kind!r}")
        self._validate_query(t_threshold)
        query = (
            DropQuery(t_threshold, v_threshold)
            if kind == "drop"
            else JumpQuery(t_threshold, v_threshold)
        )
        selectivity = self.planner.estimate_selectivity(
            kind, t_threshold, v_threshold
        )
        counts = self.store.counts()
        point_rows = counts.drop_points if kind == "drop" else counts.jump_points
        line_rows = counts.drop_lines if kind == "drop" else counts.jump_lines
        return {
            "query": query,
            "epsilon": self.epsilon,
            "window": self.window,
            "false_positive_bound": 2.0 * self.epsilon,
            "estimated_selectivity": selectivity,
            "estimated_matches": int(selectivity * point_rows),
            "chosen_mode": self.planner.choose_mode(
                kind, t_threshold, v_threshold
            ),
            "point_rows": point_rows,
            "line_rows": line_rows,
            "plan": self.session.plan(query, mode="auto"),
        }

    def explain_report(
        self,
        kind: str,
        t_threshold: float,
        v_threshold: float,
        mode: str = "auto",
        cache: str = "warm",
    ) -> ExplainReport:
        """EXPLAIN ANALYZE: run the search and report the chosen plan
        with estimated vs actual row counts per operator (and pages read
        on the MiniDB backend)."""
        if kind not in ("drop", "jump"):
            raise InvalidParameterError(f"unknown search kind {kind!r}")
        self._validate_query(t_threshold)
        query = (
            DropQuery(t_threshold, v_threshold)
            if kind == "drop"
            else JumpQuery(t_threshold, v_threshold)
        )
        return self.session.explain(query, mode=mode, cache=cache)

    def search_outcome(
        self,
        kind: str,
        t_threshold: float,
        v_threshold: float,
        mode: str = "index",
        **kw,
    ):
        """Search with the full resilience verdict.

        Returns a :class:`repro.engine.QueryOutcome` whose ``status``
        records whether the answer is COMPLETE or DEGRADED (refine pass
        skipped near the deadline — still candidate-complete by
        Theorem 1).  Accepts the same keywords as :meth:`search_drops`
        plus ``timeout_ms``/``degrade``/``data``/``verified_only``.
        """
        if kind not in ("drop", "jump"):
            raise InvalidParameterError(f"unknown search kind {kind!r}")
        query = (
            DropQuery(t_threshold, v_threshold)
            if kind == "drop"
            else JumpQuery(t_threshold, v_threshold)
        )
        self._validate_query(t_threshold)
        return self.session.search_outcome(query, mode=mode, **kw)

    @property
    def session(self) -> QuerySession:
        """The engine session every search routes through (lazy)."""
        if self._session is None:
            self._session = QuerySession(
                self.store,
                resilience=self.resilience,
                name=self.name,
            )
        return self._session

    @property
    def planner(self) -> CostModel:
        """The adaptive plan chooser for ``mode="auto"`` (lazy)."""
        return self.session.cost

    def _validate_query(self, t_threshold: float) -> None:
        if t_threshold > self.window:
            raise QueryError(
                f"T={t_threshold} exceeds the index window w={self.window}; "
                "rebuild the index with a larger window"
            )

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def segments(self) -> List[DataSegment]:
        """The data segments extracted so far (copy)."""
        return list(self._segments)

    @property
    def n_observations(self) -> int:
        """Observations ingested so far (a resumed index restarts from
        the checkpointed count)."""
        return self._writer.n_observations

    def approximation(self) -> PiecewiseLinearSignal:
        """The piecewise linear approximation ``f`` built so far.

        Raises when the index holds gap episodes (no single continuous
        approximation exists); use :meth:`episode_approximations` then.
        """
        episodes = self.episode_approximations()
        if len(episodes) != 1:
            raise InvalidParameterError(
                f"index contains {len(episodes)} gap episodes; use "
                "episode_approximations() or pass raw data explicitly"
            )
        return episodes[0]

    def episode_approximations(self) -> List[PiecewiseLinearSignal]:
        """One approximation signal per gap-free episode."""
        episodes: List[List[DataSegment]] = []
        for seg in self._segments:
            if (
                episodes
                and episodes[-1][-1].t_end == seg.t_start
                and episodes[-1][-1].v_end == seg.v_start
            ):
                episodes[-1].append(seg)
            else:
                episodes.append([seg])
        return [
            PiecewiseLinearSignal.from_segments(ep) for ep in episodes
        ]

    def stats(self) -> IndexStats:
        """Current sizes and composition counters."""
        n_segments = len(self._segments)
        n_obs = self._writer.n_observations
        rate = n_obs / n_segments if n_segments else 0.0
        return IndexStats(
            epsilon=self.epsilon,
            window=self.window,
            n_observations=n_obs,
            n_segments=n_segments,
            compression_rate=rate,
            store_counts=self.store.counts(),
            feature_bytes=self.store.feature_bytes(),
            index_bytes=self.store.index_bytes(),
            extraction=self._writer.extractor.stats,
        )

    def close(self) -> None:
        """Release the underlying store."""
        self.store.close()

    def __enter__(self) -> "SegDiffIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _split_episodes(
    ts: np.ndarray, vs: np.ndarray, max_gap: Optional[float]
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Split arrays into gap-free episodes (gap: ``dt > max_gap``)."""
    if max_gap is not None and max_gap <= 0:
        raise InvalidParameterError("max_gap must be positive")
    if max_gap is None or ts.shape[0] < 2:
        return [(ts, vs)]
    breaks = np.flatnonzero(np.diff(ts) > max_gap) + 1
    bounds = [0, *breaks.tolist(), ts.shape[0]]
    return [(ts[a:b], vs[a:b]) for a, b in zip(bounds, bounds[1:])]


"""The live (streaming) index: time-partitioned storage with snapshot
isolation, compaction, and retention.

A :class:`LiveIndex` turns the build-once pipeline into a continuously
ingesting monitor::

    producer --> append()/append_array() --> online segmentation
                                                  |
                                         hot partition (memory)
                                                  |  seal at size/age
                                         sealed partitions (sqlite/...)
                                                  |
    readers  --> snapshot() ------------> pinned, immutable view

Design invariants (docs/streaming.md has the full walkthrough):

* **Batch ≡ live.**  The segmenter and the extractor are *global* —
  sealing swaps only the feature-write destination, never flushes the
  open segmenter tail nor resets pairing history.  The feature rows of a
  fully sealed live index are therefore bit-identical to a batch build
  over the same points, merely distributed across partition stores; and
  because the §4.4 answer is a set union with a content-determined sort,
  the scatter-merged answer equals the single-store answer exactly.
* **Snapshot isolation.**  :meth:`snapshot` pins the sealed partitions
  and clones the hot store under the writer mutex; concurrent appends,
  seals, compactions and TTL expiry never change what an open snapshot
  returns.  Retired partitions are disposed only when the last pin
  releases.
* **Crash safety.**  A seal writes, finalizes and fsyncs the partition
  file *before* atomically installing the next manifest generation; a
  crash between the two leaves an orphan file (swept on open) and an
  intact previous manifest.  With a directory, observations are also
  logged to a hot-partition write-ahead log
  (:mod:`repro.storage.livewal`) *before* they enter the segmenter, so
  :meth:`open` replays everything past the durable watermark through
  the ordinary ingest path and resume needs **no source replay** — a
  crash loses at most the un-fsynced WAL tail.  :meth:`append` still
  skips everything at or before the resume point, so re-feeding the
  source remains safe (the PR 1 resume contract).
* **Self-healing.**  ``open(scrub=True)`` additionally quarantines
  unreferenced partial files, checksum-verifies every sealed partition
  (PR 6's :mod:`repro.storage.checksum` trees, persisted at seal), and
  rolls the manifest back to the longest intact prefix when a sealed
  partition is damaged.
"""

from __future__ import annotations

import logging
import math
import os
import re
import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.executor import (
    ExecutionResult,
    execute_batch_partitioned,
    execute_partitioned,
)
from ..engine.plan import build_plan
from ..engine.resilience import ResultStatus
from ..engine.session import QueryEnvelope
from ..errors import (
    CorruptionError,
    InvalidParameterError,
    InvalidSeriesError,
    QueryError,
    StorageError,
)
from ..obs import recorder as flight
from ..obs.metrics import REGISTRY
from ..obs.tracing import span
from ..storage.checksum import (
    diff_trees,
    load_trees,
    store_trees,
    tree_meta,
)
from ..storage.durable import RealFS
from ..storage.livewal import WAL_NAME, LiveWAL
from ..storage.memory_store import MemoryFeatureStore
from ..storage.partitions import (
    COMPACTIONS,
    FEATURE_TABLES,
    MANIFEST_NAME,
    PARTITION_FLUSH_ROWS,
    PARTITION_SEALS,
    PARTITIONS_EXPIRED,
    Partition,
    PartitionManifest,
    PartitionSpec,
    copy_store_into,
)
from ..types import DataSegment, SegmentPair
from .queries import DropQuery, JumpQuery
from .stream import StreamWriter

__all__ = ["LiveIndex", "LiveSnapshot", "DEFAULT_SEAL_ROWS"]

logger = logging.getLogger("repro.core.live")

#: Feature rows in the hot partition that trigger a seal.
DEFAULT_SEAL_ROWS = 50_000

#: Sub-directory damaged files are moved into by ``open(scrub=True)``.
QUARANTINE_DIR = "quarantine"

_SCRUB_QUARANTINED = REGISTRY.counter(
    "repro_live_scrub_quarantined_total",
    "Files quarantined by LiveIndex.open(scrub=True)",
    always_on=True,
)

#: Estimated hot-store bytes per stored row/segment, for the
#: ``seal_bytes`` policy: point rows are 6 float64 columns, line rows 8,
#: segments 4 — all held in python-list staging before finalize, so the
#: estimate deliberately includes per-object overhead.
_EST_POINT_ROW_BYTES = 48
_EST_LINE_ROW_BYTES = 64
_EST_SEGMENT_BYTES = 32

_MODES = ("auto", "index", "scan", "grid")

#: A partition file, or the page WAL a MiniDB partition keeps beside it.
_PARTITION_FILE_RE = re.compile(r"^(p\d+\.(?:sqlite|minidb))(?:\.wal)?$")


def stale_file(fname: str, referenced) -> bool:
    """Whether ``fname`` is a crash leftover: a partition file (or its
    page WAL) the manifest does not name, or a temp file of an install."""
    m = _PARTITION_FILE_RE.match(fname)
    return (m is not None and m.group(1) not in referenced) or fname in (
        MANIFEST_NAME + ".tmp", WAL_NAME + ".tmp"
    )


def _batch_feature_bounds(batch) -> Optional[Tuple[float, float]]:
    """``(min t_d, max t_a)`` over the batch's stored feature rows, or
    ``None`` when the batch emitted no rows.  Bounds come from the
    actual rows — a pair whose guard pruned every feature must not
    widen the partition's pruning interval."""
    mins: List[float] = []
    maxs: List[float] = []
    for table, d_col, a_col in (
        ("drop_points", 2, 5), ("jump_points", 2, 5),
        ("drop_lines", 4, 7), ("jump_lines", 4, 7),
    ):
        arr = getattr(batch, table)
        if arr.shape[0]:
            mins.append(float(arr[:, d_col].min()))
            maxs.append(float(arr[:, a_col].max()))
    if not mins:
        return None
    return min(mins), max(maxs)


class _Hot:
    """The hot partition: an in-memory store plus write-side bookkeeping."""

    def __init__(self) -> None:
        self.store = MemoryFeatureStore()
        self.segments: List[DataSegment] = []
        self.rows = 0
        #: Estimated in-memory footprint (``seal_bytes`` policy input).
        self.est_bytes = 0
        self.fmin: Optional[float] = None
        self.fmax: Optional[float] = None

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    def widen(self, fmin: float, fmax: float) -> None:
        self.fmin = fmin if self.fmin is None else min(self.fmin, fmin)
        self.fmax = fmax if self.fmax is None else max(self.fmax, fmax)


class _HotWriter:
    """The stream writer's sink: forwards segment and feature writes to
    the *current* hot partition (which changes at every seal) and tracks
    the segments, row count, size estimate and feature-time bounds the
    seal policy and the partition manifest need."""

    def __init__(self, live: "LiveIndex") -> None:
        self._live = live

    def add_segments_bulk(self, segments: List[DataSegment]) -> None:
        hot = self._live._hot
        hot.segments.extend(segments)
        hot.est_bytes += _EST_SEGMENT_BYTES * len(segments)
        hot.store.add_segments_bulk(segments)

    def add(self, features) -> None:
        hot = self._live._hot
        hot.store.add(features)
        n = features.total_features
        if n:
            hot.rows += n
            hot.est_bytes += _EST_POINT_ROW_BYTES * (
                len(features.drop_points) + len(features.jump_points)
            ) + _EST_LINE_ROW_BYTES * (
                len(features.drop_lines) + len(features.jump_lines)
            )
            pair = features.pair
            hot.widen(pair.t_d, pair.t_a)

    def add_features_bulk(self, batch) -> None:
        hot = self._live._hot
        hot.store.add_features_bulk(batch)
        hot.rows += batch.total_features
        hot.est_bytes += _EST_POINT_ROW_BYTES * (
            batch.drop_points.shape[0] + batch.jump_points.shape[0]
        ) + _EST_LINE_ROW_BYTES * (
            batch.drop_lines.shape[0] + batch.jump_lines.shape[0]
        )
        bounds = _batch_feature_bounds(batch)
        if bounds is not None:
            hot.widen(*bounds)


def partition_damage(directory: str, spec: PartitionSpec) -> Optional[str]:
    """Why the sealed partition ``spec`` of ``directory`` fails
    verification, or ``None`` when intact (scrub and ``segdiff fsck``).

    A MiniDB file first gets the fsck walk (``MiniDatabase.check``).
    Partitions carry persisted checksum trees; verification recomputes
    them from the rows and diffs them
    (:func:`~repro.storage.checksum.diff_trees`).  Partitions sealed
    before the trees existed get a full readability probe instead.
    """
    from .index import SegDiffIndex  # late: avoids an import cycle

    if spec.file is None:
        return "no backing file recorded"
    path = os.path.join(directory, spec.file)
    if not os.path.exists(path):
        return "backing file missing"
    try:
        store = SegDiffIndex._open_store(path)
    except Exception as exc:
        return f"unreadable: {exc}"
    try:
        problems = store.check() if hasattr(store, "check") else []
        if problems:
            return f"fsck: {problems[0]}"
        if store.get_meta("sealed") != 1.0:
            return "not a sealed partition"
        persisted = load_trees(store)
        if persisted is None:
            for table in FEATURE_TABLES:
                store.read_table_rows(table)
            store.load_segments()
            return None
        fresh = store_trees(store)
        for table in FEATURE_TABLES:
            ranges, _ = diff_trees(persisted[table], fresh[table])
            if ranges:
                return (
                    f"checksum mismatch in {table}: "
                    f"{len(ranges)} divergent range(s)"
                )
        return None
    except Exception as exc:
        return f"verification failed: {exc}"
    finally:
        try:
            store.close()
        except Exception:
            pass


class LiveIndex:
    """A continuously-ingesting, snapshot-isolated SegDiff index.

    Parameters
    ----------
    epsilon, window:
        The usual SegDiff build parameters (Definition 2 / Algorithm 1).
    directory:
        Partition directory.  ``None`` keeps every partition in memory
        (tests, ephemeral monitors); a path makes seals durable — the
        manifest and one store file per sealed partition live there.
    backend:
        Sealed-partition store format: ``"sqlite"`` (default with a
        directory) or ``"minidb"``; in-memory when ``directory`` is None.
    seal_rows:
        Feature rows in the hot partition that trigger a seal.
    seal_bytes:
        Seal when the hot partition's **estimated** in-memory footprint
        reaches this many bytes (checked alongside ``seal_rows``) —
        the size-aware policy for wide-row streams whose per-row cost
        dwarfs the row count; ``None`` = off.  The running estimate is
        surfaced as ``stats()["hot"]["est_bytes"]``.
    seal_age:
        Seal when the hot partition's closed segments span at least this
        many seconds (checked alongside ``seal_rows``); ``None`` = off.
    wal:
        Log observations to a hot-partition write-ahead log
        (``hot.wal``) before segmentation, so a reopen replays the
        unsealed suffix itself and the producer never re-feeds.
        Defaults to on whenever ``directory`` is set; ``True`` without
        a directory is an error (nothing to make durable against).
    wal_sync_obs:
        fsync the WAL every this many observations (plus on gaps and
        close) — the bound on what a power cut can lose.
    ttl:
        Retention: partitions whose observation coverage ends more than
        ``ttl`` seconds before the watermark are dropped (at seal time
        and via :meth:`expire`); ``None`` keeps everything.
    auto_compact:
        Run :meth:`compact` automatically after every seal.
    compact_rows / compact_min_run:
        A run of at least ``compact_min_run`` adjacent sealed partitions,
        each holding at most ``compact_rows`` rows (default
        ``seal_rows``), is merged into one partition.
    """

    def __init__(
        self,
        epsilon: float,
        window: float,
        directory: Optional[str] = None,
        backend: Optional[str] = None,
        seal_rows: int = DEFAULT_SEAL_ROWS,
        seal_bytes: Optional[int] = None,
        seal_age: Optional[float] = None,
        ttl: Optional[float] = None,
        auto_compact: bool = False,
        compact_rows: Optional[int] = None,
        compact_min_run: int = 2,
        emit_self_pairs: bool = True,
        wal: Optional[bool] = None,
        wal_sync_obs: int = 4096,
        _manifest: Optional[PartitionManifest] = None,
        _fs: Optional[RealFS] = None,
        _scrub: bool = False,
    ) -> None:
        if seal_rows < 1:
            raise InvalidParameterError("seal_rows must be >= 1")
        if seal_bytes is not None and seal_bytes < 1:
            raise InvalidParameterError("seal_bytes must be >= 1")
        if seal_age is not None and seal_age <= 0:
            raise InvalidParameterError("seal_age must be positive")
        if wal_sync_obs < 1:
            raise InvalidParameterError("wal_sync_obs must be >= 1")
        if wal and directory is None:
            raise InvalidParameterError(
                "a write-ahead log needs a directory"
            )
        if ttl is not None and ttl <= 0:
            raise InvalidParameterError("ttl must be positive")
        if compact_min_run < 2:
            raise InvalidParameterError("compact_min_run must be >= 2")
        if backend is None:
            backend = "sqlite" if directory is not None else "memory"
        if directory is not None and backend not in ("sqlite", "minidb"):
            raise InvalidParameterError(
                "durable partitions need backend 'sqlite' or 'minidb', "
                f"got {backend!r}"
            )
        if directory is None and backend != "memory":
            raise InvalidParameterError(
                f"backend {backend!r} needs a directory"
            )
        self.epsilon = float(epsilon)
        self.window = float(window)
        self.directory = directory
        self.backend = backend
        self.seal_rows = int(seal_rows)
        self.seal_bytes = None if seal_bytes is None else int(seal_bytes)
        self.seal_age = seal_age
        self.ttl = ttl
        self.auto_compact = auto_compact
        self.compact_rows = compact_rows
        self.compact_min_run = int(compact_min_run)
        self.wal_sync_obs = int(wal_sync_obs)
        self._wal_on = (directory is not None) if wal is None else bool(wal)
        self._fs = _fs if _fs is not None else RealFS()

        self._mu = threading.RLock()
        self._writer = StreamWriter(
            self.epsilon, self.window, _HotWriter(self),
            emit_self_pairs=emit_self_pairs,
        )
        self._hot = _Hot()
        self._sealed: List[Partition] = []
        self._finalized = False
        self._closed = False
        self._wal: Optional[LiveWAL] = None
        self._wal_replay_active = False
        self._wal_replayed_obs = 0
        self._wal_replayed_to: Optional[float] = None

        if _manifest is None:
            if directory is not None:
                os.makedirs(directory, exist_ok=True)
                if PartitionManifest.exists(directory):
                    raise StorageError(
                        f"{directory} already holds a partition manifest; "
                        "use LiveIndex.open() to resume it"
                    )
            self._manifest = PartitionManifest(
                epsilon=self.epsilon, window=self.window
            )
            if directory is not None:
                self._manifest.save(directory, fs=self._fs)
            if self._wal_on and directory is not None:
                wal_path = os.path.join(directory, WAL_NAME)
                if os.path.exists(wal_path):
                    # stale log from a wiped index (no manifest, old WAL)
                    self._fs.remove(wal_path)
                self._open_and_replay_wal()
        else:
            self._manifest = _manifest
            if _scrub:
                self._scrub_directory()
            self._load_partitions()
            self._resume_from_manifest()
            if self._wal_on:
                self._open_and_replay_wal()

    # ------------------------------------------------------------------ #
    # open / resume
    # ------------------------------------------------------------------ #

    @classmethod
    def open(cls, directory: str, scrub: bool = False, **kw) -> "LiveIndex":
        """Reopen a partition directory and resume at its watermark.

        ``epsilon``/``window`` come from the manifest; policy knobs
        (``seal_rows``, ``ttl``, ...) may be overridden via ``kw``.
        Orphan partition files from a crash mid-seal are swept, and when
        the WAL is enabled (the default) its unsealed frames are
        replayed through the ordinary ingest path — resume needs no
        source replay, and re-fed observations at or before the replayed
        point are skipped.

        ``scrub=True`` additionally self-heals: unreferenced partial
        files are quarantined (moved under ``quarantine/``, never
        deleted), every sealed partition is verified against the
        checksum trees persisted at seal, and a damaged partition rolls
        the manifest back to the longest intact prefix — the WAL is
        quarantined with it, since its frames continue from the
        now-discarded suffix.
        """
        manifest = PartitionManifest.load(directory)
        kw["_scrub"] = scrub
        if "backend" not in kw:
            # future seals keep the format of the existing partitions
            for f in manifest.listed_files():
                kw["backend"] = "minidb" if f.endswith(".minidb") else "sqlite"
                break
        return cls(
            manifest.epsilon,
            manifest.window,
            directory=directory,
            _manifest=manifest,
            **kw,
        )

    @classmethod
    def open_or_create(
        cls, epsilon: float, window: float, directory: str, **kw
    ) -> "LiveIndex":
        """Open ``directory`` if it holds a manifest, else create one."""
        if PartitionManifest.exists(directory):
            live = cls.open(directory, **kw)
            if live.epsilon != float(epsilon) or live.window != float(window):
                live.close()
                raise StorageError(
                    f"{directory} was built with epsilon={live.epsilon} "
                    f"window={live.window}; asked for {epsilon}/{window}"
                )
            return live
        return cls(epsilon, window, directory=directory, **kw)

    def _load_partitions(self) -> None:
        """Open every manifest-listed partition store; sweep orphans."""
        from .index import SegDiffIndex  # late: avoids an import cycle

        assert self.directory is not None
        referenced = set(self._manifest.listed_files())
        missing = sorted(
            f for f in referenced
            if not os.path.exists(os.path.join(self.directory, f))
        )
        if missing:
            # never sweep (or recreate) anything on a manifest that names
            # files the directory lacks: scrub=True rolls it back instead
            raise CorruptionError(
                f"{self.directory}: the manifest names missing partition "
                f"file(s) {missing}; open with scrub=True to roll back"
            )
        for fname in os.listdir(self.directory):
            if stale_file(fname, referenced):
                # a crash mid-seal/compact/rotation left the file
                # unreferenced — its data is past the watermark and will
                # be replayed (from the WAL or the producer)
                self._fs.remove(os.path.join(self.directory, fname))
        for spec in self._manifest.partitions:
            if spec.file is None:
                raise StorageError(
                    f"manifest partition {spec.partition_id} has no file"
                )
            path = os.path.join(self.directory, spec.file)
            store = SegDiffIndex._open_store(path)
            self._sealed.append(
                Partition(spec, store, path=path, counted=True)
            )

    def _resume_from_manifest(self) -> None:
        """Resume the stream writer at the durable watermark."""
        manifest = self._manifest
        self._finalized = manifest.finalized
        # gather enough trailing segments (newest partitions first) to
        # cover the pairing window
        segments: List[DataSegment] = []
        if manifest.watermark is not None and not self._finalized:
            for part in reversed(self._sealed):
                segments = part.store.load_segments() + segments
                if (
                    segments
                    and segments[0].t_end <= segments[-1].t_end - self.window
                ):
                    break
        self._writer.resume(
            segments, manifest.n_observations,
            watermark=manifest.watermark, break_t=manifest.episode_break,
        )

    def _open_and_replay_wal(self) -> None:
        """Open ``hot.wal`` (sweeping any torn tail) and replay its
        unsealed frames through the ordinary ingest path.

        Replay happens *after* :meth:`_resume_from_manifest` re-anchored
        the segmenter at the durable watermark, so the skip-at-or-before
        logic of :meth:`append_array` discards every already-sealed
        frame and the survivors rebuild the lost hot partition
        bit-for-bit.  Afterwards the resume point advances to the last
        replayed observation, so a producer that re-feeds its stream
        anyway cannot double-feed the segmenter.
        """
        assert self.directory is not None
        wal_path = os.path.join(self.directory, WAL_NAME)
        if self._finalized and not os.path.exists(wal_path):
            # a finalized index refuses appends; don't grow a WAL file
            return
        self._wal = LiveWAL(
            wal_path, sync_obs=self.wal_sync_obs, fs=self._fs
        )
        frames = self._wal.replay_frames()
        discarded = self._wal.discarded_bytes
        if self._finalized:
            # every observation is sealed; the log is pure garbage
            if frames:
                self._wal.reset()
            return
        if not frames and not discarded:
            return
        writer = self._writer
        resume_t = writer.resume_t
        n_before = writer.n_observations
        rejected = 0
        self._wal_replay_active = True
        try:
            for frame in frames:
                if frame[0] == "obs":
                    try:
                        self.append_array(frame[1], frame[2])
                    except InvalidSeriesError:
                        # logged before validation by an older writer
                        # (the call raised to its caller); a rejected
                        # append_array changes nothing
                        rejected += 1
                else:
                    t = frame[1]
                    if resume_t is None or (
                        not math.isnan(t) and t >= resume_t
                    ):
                        self.mark_gap()
        finally:
            self._wal_replay_active = False
        replayed = writer.n_observations - n_before
        # a producer that re-feeds its stream anyway is skipped up to the
        # last replayed observation
        writer.resume_t = writer.last_t
        self._wal_replayed_obs = replayed
        self._wal_replayed_to = writer.resume_t
        self._wal.mark_replayed(replayed)
        flight.record(
            "wal_replay", WAL_NAME,
            frames=len(frames), observations=replayed,
            rejected_frames=rejected,
            discarded_bytes=discarded,
            replayed_to=self._wal_replayed_to,
        )

    # ------------------------------------------------------------------ #
    # scrub (self-healing open)
    # ------------------------------------------------------------------ #

    def _quarantine(self, fname: str) -> None:
        """Move ``fname`` under ``quarantine/`` (collision-suffixed) —
        damaged files are preserved for postmortems, never deleted."""
        assert self.directory is not None
        qdir = os.path.join(self.directory, QUARANTINE_DIR)
        os.makedirs(qdir, exist_ok=True)
        dst = os.path.join(qdir, fname)
        n = 1
        while os.path.exists(dst):
            dst = os.path.join(qdir, f"{fname}.{n}")
            n += 1
        self._fs.replace(os.path.join(self.directory, fname), dst)
        _SCRUB_QUARANTINED.inc()

    def _scrub_directory(self) -> None:
        """Self-heal the partition directory before any store is opened.

        1. Quarantine unreferenced partition files and stale temp files
           (partial seal/manifest/rotation leftovers).
        2. Verify every manifest-listed partition **in manifest order**;
           ingest order is global, so the first damaged partition
           invalidates everything after it — those files are
           quarantined and the manifest rolls back to the intact
           prefix (``next_seq`` never rewinds: ids are not reused).
        3. A rollback also quarantines ``hot.wal``: its frames continue
           from the discarded suffix's watermark, and replaying them
           over the rolled-back state would bridge the hole.
        """
        assert self.directory is not None
        quarantined: List[str] = []
        referenced = set(self._manifest.listed_files())
        for fname in sorted(os.listdir(self.directory)):
            if stale_file(fname, referenced):
                self._quarantine(fname)
                quarantined.append(fname)

        bad_at: Optional[int] = None
        reason = ""
        for i, spec in enumerate(self._manifest.partitions):
            why = partition_damage(self.directory, spec)
            if why is not None:
                bad_at, reason = i, why
                break

        rolled_back = 0
        if bad_at is not None:
            bad = self._manifest.partitions[bad_at]
            logger.warning(
                "scrub: partition %s is damaged (%s); rolling the "
                "manifest back to the %d intact partition(s) before it",
                bad.partition_id, reason, bad_at,
            )
            for spec in self._manifest.partitions[bad_at:]:
                if spec.file is not None and os.path.exists(
                    os.path.join(self.directory, spec.file)
                ):
                    self._quarantine(spec.file)
                    quarantined.append(spec.file)
            keep = self._manifest.partitions[:bad_at]
            rolled_back = len(self._manifest.partitions) - bad_at
            if keep:
                last = keep[-1]
                watermark: Optional[float] = last.t_max
                n_obs = (
                    last.obs_covered if last.obs_covered is not None
                    # pre-obs_covered manifest: the per-partition count
                    # is unknown; fall back to segment-count totals
                    else sum(s.n_segments for s in keep)
                )
            else:
                watermark, n_obs = None, 0
            manifest = self._manifest.truncated_to(
                len(keep), watermark, n_obs
            )
            manifest.save(self.directory, fs=self._fs)
            self._manifest = manifest
            wal_path = os.path.join(self.directory, WAL_NAME)
            if os.path.exists(wal_path):
                self._quarantine(WAL_NAME)
                quarantined.append(WAL_NAME)
        if quarantined or rolled_back:
            flight.record(
                "scrub", self.directory,
                quarantined=len(quarantined),
                files=",".join(quarantined),
                rolled_back=rolled_back,
            )

    # ------------------------------------------------------------------ #
    # ingest
    # ------------------------------------------------------------------ #

    def append(self, t: float, v: float) -> None:
        """Stream one observation in (replays at or before the watermark
        are skipped — safe to re-feed after a crash).  A rejected
        observation raises before it is logged and changes nothing."""
        t, v = float(t), float(v)
        with self._mu:
            self._check_writable()
            if not self._writer.admit_one(t, v):
                return
            self._log(np.asarray([t]), np.asarray([v]))
            if self._writer.push(t, v):
                self._maybe_roll()

    def append_array(
        self, ts, vs, batch_size: int = 65_536
    ) -> None:
        """Vectorized :meth:`append` over time/value arrays (gap-free)."""
        if batch_size < 1:
            raise InvalidParameterError("batch_size must be >= 1")
        with self._mu:
            self._check_writable()
            ts, vs = self._writer.admit(ts, vs)
            if ts.shape[0]:
                self._log(ts, vs)
            for closed in self._writer.push_array(ts, vs, batch_size):
                if closed:
                    self._maybe_roll()

    def mark_gap(self) -> None:
        """Start a new episode: flush the open segment, clear pairing
        history, so no future result spans the outage."""
        with self._mu:
            self._check_writable()
            if self._wal is not None and not self._wal_replay_active:
                self._wal.log_gap(self._writer.last_t)
            self._writer.gap()
            self._maybe_roll()

    def _log(self, ts: np.ndarray, vs: np.ndarray) -> None:
        """Write admitted observations ahead to ``hot.wal``."""
        if self._wal is not None and not self._wal_replay_active:
            self._wal.append(ts, vs)

    def _check_writable(self) -> None:
        if self._closed:
            raise StorageError("live index is closed")
        if self._finalized:
            raise StorageError(
                "live index is finalized; open a new directory to extend"
            )

    # ------------------------------------------------------------------ #
    # lifecycle: seal / compact / expire / finalize
    # ------------------------------------------------------------------ #

    def _maybe_roll(self) -> None:
        hot = self._hot
        if hot.n_segments == 0:
            return
        due = hot.rows >= self.seal_rows
        if not due and self.seal_bytes is not None:
            due = hot.est_bytes >= self.seal_bytes
        if not due and self.seal_age is not None:
            due = (
                hot.segments[-1].t_end - hot.segments[0].t_start
                >= self.seal_age
            )
        if due:
            self._seal_locked()
            if self.ttl is not None:
                self._expire_locked(self.ttl)
            if self.auto_compact:
                self._compact_locked()

    def seal(self) -> Optional[Partition]:
        """Seal the hot partition now (no-op when it has no closed
        segments).  The open segmenter tail stays pending — sealing
        never changes what a future finalize would produce."""
        with self._mu:
            if self._closed:
                raise StorageError("live index is closed")
            return self._seal_locked()

    def _write_partition(self, part_id: str, sources, fields: dict,
                         transition):
        """Write ``sources`` into a new partition file and install the
        manifest ``transition(spec)`` that names it — the body a seal
        and a compaction merge share.

        The file is complete and fsynced BEFORE the manifest points at
        it; a crash in between leaves an orphan file (swept on open) and
        the previous generation.  Any other failure closes the store and
        removes the file.  A MiniDB file is written once, with no page
        WAL (:mod:`repro.storage.minidb.sealed`), then opened for reads.
        Returns ``(store, path, spec, manifest)``.
        """
        if self.directory is None:
            store, fname, path = MemoryFeatureStore(), None, None
        else:
            # the backend is "sqlite" or "minidb" (checked at init)
            fname = f"{part_id}.{self.backend}"
            path = os.path.join(self.directory, fname)
            if self.backend == "minidb":
                from ..storage.minidb.sealed import ClusteredSink

                store = ClusteredSink(path, self._fs)
            else:
                from ..storage.sqlite_store import SqliteFeatureStore

                store = SqliteFeatureStore(path)
        try:
            rows = copy_store_into(sources, store)
            # checksum trees travel inside the partition file so scrub
            # can verify it without any external state
            store.set_meta_many({
                "epsilon": self.epsilon, "window": self.window,
                "sealed": 1.0, **tree_meta(store_trees(store)),
            })
            spec = PartitionSpec(
                partition_id=part_id, rows=rows, file=fname, **fields
            )
            manifest = transition(spec)
            if path is not None:
                self._fs.fsync_file(path)
                if self.backend == "minidb":
                    from ..storage.minidb import MiniDbFeatureStore

                    store = MiniDbFeatureStore(path, _fs=self._fs)
                manifest.save(self.directory, fs=self._fs)
        except Exception:
            store.close()
            if path is not None and os.path.exists(path):
                self._fs.remove(path)
            raise
        return store, path, spec, manifest

    def _seal_locked(self) -> Optional[Partition]:
        hot = self._hot
        if hot.n_segments == 0:
            return None
        part_id = f"p{self._manifest.next_seq:06d}"
        watermark = hot.segments[-1].t_end
        with span("partition.seal") as sp:
            sp.set_attribute("partition", part_id)
            sp.set_attribute("rows", hot.rows)
            hot.store.finalize()
            store, path, spec, manifest = self._write_partition(
                part_id, [hot.store],
                dict(
                    t_min=hot.segments[0].t_start,
                    t_max=watermark,
                    feature_t_min=(
                        hot.fmin if hot.fmin is not None
                        else hot.segments[0].t_start
                    ),
                    feature_t_max=(
                        hot.fmax if hot.fmax is not None else watermark
                    ),
                    n_segments=hot.n_segments,
                    obs_covered=self._writer.n_obs_covered,
                ),
                lambda spec: self._manifest.with_sealed(
                    spec, watermark, self._writer.n_obs_covered,
                    episode_break=self._writer.break_t,
                ),
            )
            self._manifest = manifest
            part = Partition(spec, store, path=path, counted=True)
            self._sealed.append(part)
            hot_had_rows = hot.rows
            self._hot = _Hot()
            if self._wal is not None:
                # GC only after the manifest is installed: frames at or
                # before the watermark are now redundant.  Rotation is
                # never on the correctness path (stale frames replay
                # idempotently), so a transient failure just keeps the
                # old log; a simulated power cut still propagates.
                try:
                    self._wal.rewrite(watermark)
                except OSError as rot_exc:
                    logger.warning(
                        "WAL rotation after seal %s failed (%s); "
                        "keeping the old log", part_id, rot_exc,
                    )
            PARTITION_SEALS.inc()
            PARTITION_FLUSH_ROWS.observe(hot_had_rows)
            flight.record(
                "seal", part_id,
                rows=hot_had_rows, segments=spec.n_segments,
                watermark=watermark,
            )
        hot.store.close()
        return part

    def compact(
        self,
        max_rows: Optional[int] = None,
        min_run: Optional[int] = None,
    ) -> int:
        """Merge adjacent runs of small sealed partitions (lossless —
        features are already extracted, so a merge is a time-ordered row
        concatenation).  Returns the number of merges performed."""
        with self._mu:
            if self._closed:
                raise StorageError("live index is closed")
            return self._compact_locked(max_rows, min_run)

    def _small_runs(self, max_rows: int, min_run: int) -> List[List[int]]:
        runs: List[List[int]] = []
        current: List[int] = []
        for i, part in enumerate(self._sealed):
            if part.spec.rows <= max_rows:
                current.append(i)
            else:
                if len(current) >= min_run:
                    runs.append(current)
                current = []
        if len(current) >= min_run:
            runs.append(current)
        return runs

    def _compact_locked(
        self,
        max_rows: Optional[int] = None,
        min_run: Optional[int] = None,
    ) -> int:
        if max_rows is None:
            max_rows = (
                self.compact_rows if self.compact_rows is not None
                else self.seal_rows
            )
        if min_run is None:
            min_run = self.compact_min_run
        if min_run < 2:
            raise InvalidParameterError("min_run must be >= 2")
        merges = 0
        # re-scan after every merge: indices shift as runs collapse
        while True:
            runs = self._small_runs(max_rows, min_run)
            if not runs:
                return merges
            self._merge_run(runs[0])
            merges += 1

    def _merge_run(self, idxs: List[int]) -> None:
        run = [self._sealed[i] for i in idxs]
        part_id = f"p{self._manifest.next_seq:06d}"
        with span("partition.compact") as sp:
            sp.set_attribute("partition", part_id)
            sp.set_attribute("merged", len(run))
            store, path, spec, manifest = self._write_partition(
                part_id, [p.store for p in run],
                dict(
                    t_min=run[0].spec.t_min,
                    t_max=run[-1].spec.t_max,
                    feature_t_min=min(p.spec.feature_t_min for p in run),
                    feature_t_max=max(p.spec.feature_t_max for p in run),
                    n_segments=sum(p.spec.n_segments for p in run),
                    obs_covered=run[-1].spec.obs_covered,
                ),
                lambda spec: self._manifest.with_replaced(
                    [p.partition_id for p in run], spec
                ),
            )
            self._manifest = manifest
            merged = Partition(spec, store, path=path, counted=True)
            lo = idxs[0]
            self._sealed = (
                self._sealed[:lo]
                + [merged]
                + self._sealed[lo + len(idxs):]
            )
            # retired partitions stay alive for pinned readers; their
            # cached sessions (and cost-model samples) are dropped now
            for old in run:
                old.retire()
            COMPACTIONS.inc()
            flight.record(
                "compaction", part_id,
                merged=len(run), rows=spec.rows,
                replaced=",".join(p.partition_id for p in run),
            )

    def expire(self, ttl: Optional[float] = None) -> List[str]:
        """Drop partitions fully expired under ``ttl`` (defaults to the
        configured retention).  Pinned readers keep their view; the
        stores are disposed when the last snapshot releases them.
        Returns the dropped partition ids."""
        with self._mu:
            if self._closed:
                raise StorageError("live index is closed")
            if ttl is None:
                ttl = self.ttl
            if ttl is None:
                raise InvalidParameterError(
                    "no ttl configured and none given"
                )
            return self._expire_locked(ttl)

    def _expire_locked(self, ttl: float) -> List[str]:
        wm = self.watermark
        if wm is None:
            return []
        cutoff = wm - ttl
        victims = [p for p in self._sealed if p.spec.t_max <= cutoff]
        if not victims:
            return []
        with span("partition.expire") as sp:
            ids = [p.partition_id for p in victims]
            sp.set_attribute("partitions", len(ids))
            manifest = self._manifest.with_dropped(ids)
            if self.directory is not None:
                manifest.save(self.directory, fs=self._fs)
            self._manifest = manifest
            keep = set(ids)
            self._sealed = [
                p for p in self._sealed if p.partition_id not in keep
            ]
            for p in victims:
                p.retire()
            PARTITIONS_EXPIRED.inc(len(victims))
            flight.record(
                "expire", "ttl",
                partitions=len(ids), ids=",".join(ids), cutoff=cutoff,
            )
        return ids

    def finalize(self) -> None:
        """Seal the stream: flush the segmenter tail, seal the hot
        partition, and mark the manifest finalized."""
        with self._mu:
            if self._closed:
                raise StorageError("live index is closed")
            if self._finalized:
                return
            self._writer.finish()
            self._seal_locked()
            manifest = self._manifest.with_finalized()
            if self.directory is not None:
                manifest.save(self.directory, fs=self._fs)
            self._manifest = manifest
            self._finalized = True
            if self._wal is not None:
                # every observation is sealed and the manifest says so;
                # the log has nothing left to protect
                self._wal.close(delete=True)
                self._wal = None

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    def snapshot(self) -> "LiveSnapshot":
        """An isolated, immutable view of everything ingested so far.

        Sealed partitions are pinned (concurrent compaction/expiry defer
        disposal); the hot partition is cloned into a frozen store under
        the writer mutex.  The snapshot answers queries identically no
        matter what the writer does afterwards.  Close it (or use it as
        a context manager) to release the pins.
        """
        with self._mu:
            if self._closed:
                raise StorageError("live index is closed")
            parts = [p.pin() for p in self._sealed]
            hot_part: Optional[Partition] = None
            hot = self._hot
            if hot.rows > 0:
                hot.store.finalize()
                clone = MemoryFeatureStore()
                copy_store_into([hot.store], clone)
                spec = PartitionSpec(
                    partition_id="hot",
                    t_min=hot.segments[0].t_start,
                    t_max=hot.segments[-1].t_end,
                    feature_t_min=(
                        hot.fmin if hot.fmin is not None
                        else hot.segments[0].t_start
                    ),
                    feature_t_max=(
                        hot.fmax if hot.fmax is not None
                        else hot.segments[-1].t_end
                    ),
                    rows=hot.rows,
                    n_segments=hot.n_segments,
                )
                hot_part = Partition(spec, clone)
            return LiveSnapshot(
                epsilon=self.epsilon,
                window=self.window,
                partitions=parts,
                hot=hot_part,
                backend=self.backend,
                generation=self._manifest.generation,
                watermark=self.watermark,
                n_observations=self._writer.n_observations,
            )

    def search_drops(
        self, t_threshold: float, v_threshold: float, mode: str = "index",
        **kw,
    ) -> List[SegmentPair]:
        """Live drop search over an ephemeral snapshot (accepts the
        :meth:`LiveSnapshot.search` keywords, e.g. ``t_range``)."""
        with self.snapshot() as snap:
            return snap.search_drops(t_threshold, v_threshold, mode=mode, **kw)

    def search_jumps(
        self, t_threshold: float, v_threshold: float, mode: str = "index",
        **kw,
    ) -> List[SegmentPair]:
        with self.snapshot() as snap:
            return snap.search_jumps(t_threshold, v_threshold, mode=mode, **kw)

    def search_batch(self, queries, mode: str = "auto", **kw):
        with self.snapshot() as snap:
            return snap.search_batch(queries, mode=mode, **kw)

    def explain(
        self, kind: str, t_threshold: float, v_threshold: float, **kw
    ) -> dict:
        """Partition-aware EXPLAIN: how many partitions the query would
        scan vs prune, with merged per-operator row counts."""
        with self.snapshot() as snap:
            return snap.explain(kind, t_threshold, v_threshold, **kw)

    # ------------------------------------------------------------------ #
    # introspection / lifecycle
    # ------------------------------------------------------------------ #

    @property
    def watermark(self) -> Optional[float]:
        """End of the last closed segment (durable once sealed)."""
        if self._hot.segments:
            return self._hot.segments[-1].t_end
        if self._sealed:
            return self._sealed[-1].spec.t_max
        return self._manifest.watermark

    @property
    def n_observations(self) -> int:
        return self._writer.n_observations

    @property
    def generation(self) -> int:
        return self._manifest.generation

    @property
    def finalized(self) -> bool:
        return self._finalized

    @property
    def partitions(self) -> List[PartitionSpec]:
        """Specs of the sealed partitions, oldest first (copy)."""
        with self._mu:
            return [p.spec for p in self._sealed]

    def stats(self) -> Dict:
        """A JSON-able summary (the CLI's ``stats`` partition section)."""
        with self._mu:
            sealed = [p.spec.to_json() for p in self._sealed]
            hot = self._hot
            return {
                "epsilon": self.epsilon,
                "window": self.window,
                "backend": self.backend,
                "generation": self._manifest.generation,
                "finalized": self._finalized,
                "watermark": self.watermark,
                "n_observations": self._writer.n_observations,
                "partitions": sealed,
                "n_partitions": len(sealed),
                "sealed_rows": sum(p.spec.rows for p in self._sealed),
                "sealed_segments": sum(
                    p.spec.n_segments for p in self._sealed
                ),
                "hot": {
                    "rows": hot.rows,
                    "n_segments": hot.n_segments,
                    "est_bytes": hot.est_bytes,
                    "t_min": (
                        hot.segments[0].t_start if hot.segments else None
                    ),
                    "t_max": (
                        hot.segments[-1].t_end if hot.segments else None
                    ),
                },
                "seal_bytes": self.seal_bytes,
                "wal": (
                    None if self._wal is None else {
                        **self._wal.stats(),
                        "replayed_observations": self._wal_replayed_obs,
                        "replayed_to": self._wal_replayed_to,
                    }
                ),
            }

    def close(self) -> None:
        with self._mu:
            if self._closed:
                return
            self._closed = True
            if self._wal is not None:
                self._wal.close()
                self._wal = None
            for p in self._sealed:
                p.close()
            self._sealed = []
            self._hot.store.close()

    def __enter__(self) -> "LiveIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class LiveSnapshot:
    """A pinned, immutable view of a :class:`LiveIndex`.

    Queries scatter across the pinned partitions (skipping those whose
    feature-time bounds miss the ``t_range``), merge with the standard
    §4.4 union/dedup ordering, and are unaffected by concurrent writer
    activity.  Thread-safe: the underlying stores are frozen and every
    partition's reads are lock-protected when its backend needs it.
    """

    def __init__(
        self,
        epsilon: float,
        window: float,
        partitions: List[Partition],
        hot: Optional[Partition],
        generation: int,
        watermark: Optional[float],
        n_observations: int,
        backend: str = "memory",
    ) -> None:
        self.epsilon = epsilon
        self.window = window
        self.backend = backend
        self.generation = generation
        self.watermark = watermark
        #: Observations the writer had ingested when this snapshot froze.
        self.n_observations = n_observations
        self._parts = partitions
        self._hot = hot
        self._closed = False

    # -------------------------------------------------------------- #

    @property
    def n_partitions(self) -> int:
        return len(self._parts) + (1 if self._hot is not None else 0)

    def _all_partitions(self) -> List[Partition]:
        parts = list(self._parts)
        if self._hot is not None:
            parts.append(self._hot)
        return parts

    def _check(self, t_threshold: float, mode: str) -> None:
        if self._closed:
            raise StorageError("snapshot is closed")
        if mode not in _MODES:
            raise InvalidParameterError(
                f"mode must be one of {_MODES}, got {mode!r}"
            )
        if t_threshold > self.window:
            raise QueryError(
                f"T={t_threshold} exceeds the index window w={self.window}"
            )

    def _make_plans(self, queries: Sequence, mode: str, t_range):
        """``partition -> [plan per query]``: each partition's cost
        model chooses under ``auto``, otherwise ``mode`` is forced."""
        if mode == "auto":
            return lambda part: [
                part.session().plan(q, mode="auto", t_range=t_range)
                for q in queries
            ]
        return lambda part: [
            build_plan(q, point_access=mode, t_range=t_range)
            for q in queries
        ]

    def _envelope(self, api: str) -> QueryEnvelope:
        return QueryEnvelope(api, f"live/{self.backend}")

    def _query(self, kind: str, t_threshold: float, v_threshold: float):
        if kind not in ("drop", "jump"):
            raise InvalidParameterError(f"unknown search kind {kind!r}")
        return (
            DropQuery(t_threshold, v_threshold) if kind == "drop"
            else JumpQuery(t_threshold, v_threshold)
        )

    # -------------------------------------------------------------- #
    # search
    # -------------------------------------------------------------- #

    def search(
        self,
        query,
        mode: str = "auto",
        cache: str = "warm",
        t_range: Optional[Tuple[float, float]] = None,
        data=None,
        verified_only: bool = False,
    ):
        """Scatter one query across the snapshot's partitions and merge.

        With ``data``, the merged candidates are witness-refined once
        (:class:`~repro.core.results.SearchHit` list); otherwise the
        distinct :class:`~repro.types.SegmentPair` list, identical to a
        batch-built index over the same points.
        """
        result = self.execute(
            query, mode=mode, cache=cache, t_range=t_range,
            data=data, verified_only=verified_only,
        )
        if result.error is not None:
            raise result.error  # a partial answer must not pass silently
        return result.hits if data is not None else result.pairs

    def execute(
        self,
        query,
        mode: str = "auto",
        cache: str = "warm",
        t_range: Optional[Tuple[float, float]] = None,
        data=None,
        verified_only: bool = False,
        pushdown: bool = True,
    ) -> ExecutionResult:
        """:meth:`search` returning the full :class:`ExecutionResult`:
        merged operator stats, partitions scanned/pruned, and the
        scatter's verdict — DEGRADED or FAILED with the lost partitions
        named in ``completeness`` when some could not be read."""
        self._check(query.t_threshold, mode)
        make_plans = self._make_plans([query], mode, t_range)
        with self._envelope("live_search") as env:
            result = execute_partitioned(
                query,
                lambda part: make_plans(part)[0],
                self._all_partitions(),
                t_range=t_range,
                cache=cache,
                data=data,
                verified_only=verified_only,
                pushdown=pushdown,
            )
            # the record carries the pruning decision and the accounting
            # breakdown, so a slow scatter names the partitions it scanned
            env.done(
                lambda: f"live[{self.n_partitions}p] {query.kind}"
                f"(T={query.t_threshold:g}, V={query.v_threshold:g})"
                f" mode={mode}",
                len(result.pairs),
                result.status.value,
                result.op_stats,
                partitions_scanned=result.partitions_scanned,
                partitions_pruned=result.partitions_pruned,
            )
        return result

    def search_drops(
        self, t_threshold: float, v_threshold: float, mode: str = "index",
        **kw,
    ) -> List[SegmentPair]:
        return self.search(
            DropQuery(t_threshold, v_threshold), mode=mode, **kw
        )

    def search_jumps(
        self, t_threshold: float, v_threshold: float, mode: str = "index",
        **kw,
    ) -> List[SegmentPair]:
        return self.search(
            JumpQuery(t_threshold, v_threshold), mode=mode, **kw
        )

    def search_batch(
        self,
        queries: Sequence,
        mode: str = "auto",
        cache: str = "warm",
        t_range: Optional[Tuple[float, float]] = None,
    ) -> List[List[SegmentPair]]:
        """A whole (T, V) grid, scatter-merged across partitions with
        one shared candidate fetch per (partition, kind).  Raises the
        first store failure (matching ``QuerySession.search_batch``)."""
        outcomes = self.search_batch_results(
            queries, mode=mode, cache=cache, t_range=t_range
        )
        for out in outcomes:
            if out.status is ResultStatus.FAILED and out.error is not None:
                raise out.error
        return [out.pairs for out in outcomes]

    def search_batch_results(
        self,
        queries: Sequence,
        mode: str = "auto",
        cache: str = "warm",
        t_range: Optional[Tuple[float, float]] = None,
    ) -> List[ExecutionResult]:
        if mode == "grid":
            raise InvalidParameterError(
                "batched execution supports 'auto', 'index' and 'scan'"
            )
        for q in queries:
            self._check(q.t_threshold, mode)
        if not queries:
            return []
        with self._envelope("live_search_batch") as env:
            results = execute_batch_partitioned(
                self._make_plans(queries, mode, t_range),
                self._all_partitions(),
                n_queries=len(queries),
                t_range=t_range,
                cache=cache,
            )
            env.done_batch(
                lambda: f"live[{self.n_partitions}p] batch[{len(queries)}q]"
                f" mode={mode}",
                results,
                op_stats=results[0].op_stats,
                partitions_scanned=results[0].partitions_scanned,
                partitions_pruned=results[0].partitions_pruned,
            )
        return results

    def explain(
        self,
        kind: str,
        t_threshold: float,
        v_threshold: float,
        mode: str = "auto",
        t_range: Optional[Tuple[float, float]] = None,
        cache: str = "warm",
    ) -> dict:
        """Partition-aware EXPLAIN: runs the query (pushdown off, so
        fetched counts are true candidate sizes) and reports the pruning
        decision alongside merged operator statistics."""
        query = self._query(kind, t_threshold, v_threshold)
        # the outer envelope only owns the context, so the accounting can
        # be read back; the query is reported once, by ``execute``
        with self._envelope("live_search") as env:
            result = self.execute(
                query, mode=mode, cache=cache, t_range=t_range,
                pushdown=False,
            )
        return {
            "query": query,
            "query_id": env.ctx.query_id,
            "accounting": env.ctx.accounting.to_dict(),
            "t_range": t_range,
            "generation": self.generation,
            "watermark": self.watermark,
            "partitions_total": self.n_partitions,
            "partitions_scanned": result.partitions_scanned,
            "partitions_pruned": result.partitions_pruned,
            "n_pairs": len(result.pairs),
            "operators": [s.to_dict() for s in result.op_stats],
        }

    # -------------------------------------------------------------- #
    # lifecycle
    # -------------------------------------------------------------- #

    def close(self) -> None:
        """Release the partition pins (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for p in self._parts:
            p.release()
        if self._hot is not None:
            self._hot.close()

    def __enter__(self) -> "LiveSnapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

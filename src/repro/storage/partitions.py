"""Time partitions: the storage tier of the live (streaming) index.

A live deployment organizes one logical index as an LSM-flavored run of
**partitions** ordered by time:

* one **hot** partition — an in-memory store receiving the features the
  online pipeline emits right now;
* any number of **sealed** partitions — immutable, finalized stores
  (SQLite / MiniDB files, or frozen memory stores in tests), each
  covering a half-open observation range ``[t_min, t_max)``.

The set of sealed partitions is described by a JSON
:class:`PartitionManifest` with a monotonically increasing
``generation``.  Every lifecycle transition — seal, compact, expire —
produces the *next* manifest and installs it atomically
(``os.replace``), so a crash at any point leaves either the old or the
new generation on disk, never a mix; partition files not referenced by
the surviving manifest are orphans and are swept on open.

Readers never lock out writers: a snapshot **pins** the partitions it
was opened over.  Retiring a partition (compaction folded it into a
bigger one, or TTL retention dropped it) only marks it; the store is
closed and its file deleted when the last pin is released, so a pinned
reader keeps a consistent view while the manifest moves on.

Pruning: each partition records the extent ``[feature_t_min,
feature_t_max]`` of the feature rows it holds (pairs may *start* up to a
window ``w`` before the partition's first observation, because Algorithm
1 pairs a new segment against up-to-``w`` of history).  A query
restricted to ``t_range`` can skip every partition whose feature extent
misses the range — see :func:`repro.engine.executor.execute_partitioned`.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field, replace
from functools import partial
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import CorruptionError, InvalidParameterError, StorageError
from ..obs.metrics import REGISTRY, ROWS_BUCKETS
from .durable import RealFS, atomic_replace

__all__ = [
    "FEATURE_TABLES",
    "MANIFEST_NAME",
    "PartitionSpec",
    "Partition",
    "PartitionManifest",
    "copy_store_into",
    "install_json",
    "read_json",
    "manifest_field",
]

#: The four physical feature tables every store holds.
FEATURE_TABLES = ("drop_points", "drop_lines", "jump_points", "jump_lines")

#: Manifest file name inside a partitioned index directory.
MANIFEST_NAME = "partitions.json"

MANIFEST_VERSION = 1

PARTITIONS_ACTIVE = REGISTRY.gauge(
    "repro_partitions_active",
    "Sealed partitions currently part of a live index (not retired)",
)
PARTITION_SEALS = REGISTRY.counter(
    "repro_partition_seals_total",
    "Hot partitions sealed into immutable partition stores",
)
COMPACTIONS = REGISTRY.counter(
    "repro_compactions_total",
    "Compaction merges of adjacent sealed partitions",
)
PARTITIONS_EXPIRED = REGISTRY.counter(
    "repro_partitions_expired_total",
    "Sealed partitions dropped by TTL retention",
)
PARTITION_FLUSH_ROWS = REGISTRY.histogram(
    "repro_partition_flush_rows",
    "Feature rows flushed per partition seal",
    buckets=ROWS_BUCKETS,
)


def install_json(fs, path: str, obj) -> None:
    """Atomically install ``obj`` as the JSON file ``path`` through the
    file facade ``fs`` (:class:`~repro.storage.durable.RealFS` when
    ``None``): :func:`~repro.storage.durable.atomic_replace` — a crash or
    a full disk leaves either the previous file or the new one."""
    payload = json.dumps(obj, indent=2).encode("utf-8")
    atomic_replace(fs or RealFS(), path, lambda fh: fh.write(payload))


def read_json(path: str, what: str):
    """The parsed JSON manifest at ``path`` (``what`` names it in the
    :class:`StorageError` raised when it cannot be read or parsed)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise StorageError(f"cannot read {what} {path}: {exc}") from exc


def manifest_field(source: str, obj, key: str, kind, optional=False):
    """``obj[key]`` as a ``kind`` (``float`` / ``int`` convert, ``str`` /
    ``list`` must already be one), from the manifest object ``obj`` read
    from ``source``.  Manifests are bytes from disk: valid JSON of the
    wrong shape is a :class:`CorruptionError` naming file and field."""
    if not isinstance(obj, dict):
        raise CorruptionError(
            f"{source}: expected a JSON object holding {key!r}, "
            f"got {type(obj).__name__}"
        )
    value = obj.get(key)
    if value is None:
        if optional:
            return None
        raise CorruptionError(f"{source}: missing field {key!r}")
    try:
        if kind in (str, list) and not isinstance(value, kind):
            raise TypeError
        return kind(value)
    except (TypeError, ValueError):
        raise CorruptionError(
            f"{source}: field {key!r} is not {kind.__name__}: {value!r}"
        ) from None


@dataclass(frozen=True)
class PartitionSpec:
    """Immutable description of one partition (what the manifest stores).

    ``t_min``/``t_max`` bound the *observation* timestamps whose closed
    segments landed in this partition (half-open ``[t_min, t_max)``
    against the next partition).  ``feature_t_min``/``feature_t_max``
    bound the ``[t_d, t_a]`` extents of the stored feature rows — the
    sound pruning interval, which reaches up to a window ``w`` earlier
    than ``t_min`` because pairs span partition boundaries.
    """

    partition_id: str
    t_min: float
    t_max: float
    feature_t_min: float
    feature_t_max: float
    rows: int
    n_segments: int
    file: Optional[str] = None  # None for in-memory partitions
    #: Observations covered by the manifest *up to and including* this
    #: partition — the per-partition twin of the manifest-level
    #: ``n_observations``, which lets a scrub rollback to any prefix
    #: restore a consistent count.  ``None`` on manifests written before
    #: this field existed.
    obs_covered: Optional[int] = None

    def overlaps_time(
        self, t_range: Optional[Tuple[float, float]]
    ) -> bool:
        """Whether a query restricted to ``t_range`` can match any
        feature row stored here.  ``None`` means unrestricted."""
        if t_range is None:
            return True
        lo, hi = t_range
        return not (self.feature_t_max < lo or self.feature_t_min > hi)

    def to_json(self) -> dict:
        return {
            "partition_id": self.partition_id,
            "t_min": self.t_min,
            "t_max": self.t_max,
            "feature_t_min": self.feature_t_min,
            "feature_t_max": self.feature_t_max,
            "rows": self.rows,
            "n_segments": self.n_segments,
            "file": self.file,
            "obs_covered": self.obs_covered,
        }

    @classmethod
    def from_json(cls, obj: dict, source: str = "partition spec"
                  ) -> "PartitionSpec":
        get = partial(manifest_field, source, obj)
        spec = cls(
            partition_id=get("partition_id", str),
            t_min=get("t_min", float),
            t_max=get("t_max", float),
            feature_t_min=get("feature_t_min", float),
            feature_t_max=get("feature_t_max", float),
            rows=get("rows", int),
            n_segments=get("n_segments", int),
            file=get("file", str, optional=True),
            obs_covered=get("obs_covered", int, optional=True),
        )
        if spec.file is not None and os.path.basename(spec.file) != spec.file:
            raise CorruptionError(
                f"{source}: partition file {spec.file!r} is not a file name"
            )
        return spec


class Partition:
    """One sealed (or snapshot-frozen hot) partition: spec + open store.

    Pin-counted: readers :meth:`pin` the partitions of their snapshot;
    :meth:`retire` marks the partition dropped from the manifest, and the
    store is closed (and its backing file deleted) only when the last
    pin goes — a retired partition never disappears under a reader.
    """

    def __init__(
        self,
        spec: PartitionSpec,
        store,
        path: Optional[str] = None,
        counted: bool = False,
    ):
        self.spec = spec
        self.store = store
        self.path = path
        self._pins = 0
        self._retired = False
        self._closed = False
        self._lock = threading.Lock()
        # whether this partition is counted in the active-partitions
        # gauge (sealed members of a live index are; snapshot-private
        # hot views are not)
        self._counted = counted
        if counted:
            PARTITIONS_ACTIVE.inc()
        # lazily-built read-side state (cost model / session); dropped on
        # retire so cached selectivity samples never outlive the rows
        # they were drawn from
        self._session = None

    @property
    def partition_id(self) -> str:
        return self.spec.partition_id

    def overlaps_time(self, t_range: Optional[Tuple[float, float]]) -> bool:
        return self.spec.overlaps_time(t_range)

    @property
    def read_lock(self) -> Optional[threading.Lock]:
        """A lock the executor must hold while reading, for backends
        whose concurrent reads are unsafe (MiniDB's buffer pool)."""
        if getattr(self.store, "THREAD_SAFE_READS", False):
            return None
        return self._lock

    def session(self):
        """A lazily-built, cached :class:`~repro.engine.session.QuerySession`.

        Sealed partitions are immutable, so the session's cost-model
        samples can be cached for the partition's whole life; they are
        invalidated and dropped when the partition is retired.
        """
        if self._session is None:
            from ..engine.session import QuerySession

            self._session = QuerySession(self.store)
        return self._session

    # -------------------------------------------------------------- #
    # pinning / lifecycle
    # -------------------------------------------------------------- #

    def pin(self) -> "Partition":
        with self._lock:
            if self._closed:
                raise StorageError(
                    f"partition {self.partition_id} is closed"
                )
            self._pins += 1
        return self

    def release(self) -> None:
        with self._lock:
            if self._pins <= 0:
                raise StorageError(
                    f"partition {self.partition_id} released more than pinned"
                )
            self._pins -= 1
            reap = self._retired and self._pins == 0
        if reap:
            self._dispose()

    def retire(self) -> None:
        """Drop from the live set; dispose once the last pin releases."""
        with self._lock:
            if self._retired:
                return
            self._retired = True
            if self._session is not None:
                # stale selectivity samples must not outlive the rows
                self._session.invalidate()
                self._session = None
            reap = self._pins == 0
        self._uncount()
        if reap:
            self._dispose()

    @property
    def retired(self) -> bool:
        return self._retired

    @property
    def pins(self) -> int:
        return self._pins

    def _dispose(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self.store.close()
        finally:
            if self.path is not None:
                try:
                    os.remove(self.path)
                except OSError:
                    pass  # already gone (crash sweep, manual cleanup)

    def _uncount(self) -> None:
        if self._counted:
            self._counted = False
            PARTITIONS_ACTIVE.dec()

    def close(self) -> None:
        """Unconditional close (index shutdown); ignores pins."""
        self._retired = True
        self._uncount()
        if not self._closed:
            self._closed = True
            self.store.close()


@dataclass(frozen=True)
class PartitionManifest:
    """The generation-stamped catalog of one live index's partitions.

    Immutable: every mutation helper returns the *next* generation, and
    :meth:`save` installs it atomically.  ``watermark`` is the timestamp
    up to which data is durably sealed — the replay point a producer
    resumes from; ``n_observations`` is the observation count those
    sealed partitions cover.
    """

    epsilon: float
    window: float
    generation: int = 0
    watermark: Optional[float] = None
    n_observations: int = 0
    next_seq: int = 0
    finalized: bool = False
    partitions: Tuple[PartitionSpec, ...] = ()
    #: The last observation time before an episode break, when the
    #: sealed partitions end at one (a resume then starts a fresh
    #: episode); ``None`` otherwise, and then left out of the file.
    episode_break: Optional[float] = None

    # -------------------------------------------------------------- #
    # transitions (each bumps the generation)
    # -------------------------------------------------------------- #

    def with_sealed(
        self,
        spec: PartitionSpec,
        watermark: float,
        n_observations: int,
        episode_break: Optional[float] = None,
    ) -> "PartitionManifest":
        return replace(
            self,
            generation=self.generation + 1,
            watermark=watermark,
            n_observations=n_observations,
            next_seq=self.next_seq + 1,
            partitions=self.partitions + (spec,),
            episode_break=episode_break,
        )

    def with_episode_break(
        self, t: float, n_observations: int
    ) -> "PartitionManifest":
        """A gap with nothing to seal: the stream covers
        ``n_observations`` and is durable up to ``t``, the last
        observation before the break."""
        return replace(
            self,
            generation=self.generation + 1,
            watermark=t,
            n_observations=n_observations,
            episode_break=t,
        )

    def with_replaced(
        self, old_ids: Sequence[str], new_spec: PartitionSpec
    ) -> "PartitionManifest":
        """Compaction: a contiguous run ``old_ids`` becomes ``new_spec``."""
        ids = list(old_ids)
        out: List[PartitionSpec] = []
        inserted = False
        for spec in self.partitions:
            if spec.partition_id in ids:
                if not inserted:
                    out.append(new_spec)
                    inserted = True
                continue
            out.append(spec)
        if not inserted:
            raise InvalidParameterError(
                f"none of {ids} present in the manifest"
            )
        return replace(
            self,
            generation=self.generation + 1,
            next_seq=self.next_seq + 1,
            partitions=tuple(out),
        )

    def with_dropped(self, ids: Sequence[str]) -> "PartitionManifest":
        """TTL retention: drop ``ids`` outright."""
        drop = set(ids)
        return replace(
            self,
            generation=self.generation + 1,
            partitions=tuple(
                s for s in self.partitions if s.partition_id not in drop
            ),
        )

    def with_finalized(self) -> "PartitionManifest":
        return replace(self, generation=self.generation + 1, finalized=True)

    def truncated_to(
        self,
        count: int,
        watermark: Optional[float],
        n_observations: int,
    ) -> "PartitionManifest":
        """Scrub rollback: keep only the first ``count`` partitions.

        A damaged sealed partition invalidates everything after it (the
        ingest order is global), so recovery rolls the catalog back to
        the longest intact prefix.  ``next_seq`` is *not* rewound —
        partition ids must never be reused, or a stale quarantined file
        could shadow a fresh one.
        """
        return replace(
            self,
            generation=self.generation + 1,
            watermark=watermark,
            n_observations=n_observations,
            finalized=False,
            partitions=self.partitions[:count],
            episode_break=None,
        )

    # -------------------------------------------------------------- #
    # persistence
    # -------------------------------------------------------------- #

    def to_json(self) -> dict:
        obj = {
            "version": MANIFEST_VERSION,
            "epsilon": self.epsilon,
            "window": self.window,
            "generation": self.generation,
            "watermark": self.watermark,
            "n_observations": self.n_observations,
            "next_seq": self.next_seq,
            "finalized": self.finalized,
            "partitions": [s.to_json() for s in self.partitions],
        }
        if self.episode_break is not None:
            obj["episode_break"] = self.episode_break
        return obj

    def save(self, directory: str, fs=None) -> str:
        """Atomically install this manifest as ``directory/partitions.json``
        (:func:`install_json`): a crash or a full disk leaves either the
        previous generation or this one, never a torn file.

        ``fs`` is the file facade (``RealFS`` by default) through which
        the fault matrix counts every operation.
        """
        path = os.path.join(directory, MANIFEST_NAME)
        install_json(fs, path, self.to_json())
        return path

    @classmethod
    def load(cls, directory: str) -> "PartitionManifest":
        path = os.path.join(directory, MANIFEST_NAME)
        obj = read_json(path, "partition manifest")
        get = partial(manifest_field, path, obj)
        if get("version", int, optional=True) != MANIFEST_VERSION:
            raise StorageError(
                f"{path}: unsupported manifest version {obj.get('version')!r}"
            )
        epsilon, window = get("epsilon", float), get("window", float)
        if not (epsilon >= 0 and window > 0):
            raise CorruptionError(
                f"{path}: epsilon {epsilon} / window {window} out of range"
            )
        return cls(
            epsilon=epsilon,
            window=window,
            generation=get("generation", int),
            watermark=get("watermark", float, optional=True),
            n_observations=get("n_observations", int),
            next_seq=get("next_seq", int),
            finalized=bool(obj.get("finalized", False)),
            partitions=tuple(
                PartitionSpec.from_json(p, path)
                for p in get("partitions", list)
            ),
            episode_break=get("episode_break", float, optional=True),
        )

    @classmethod
    def exists(cls, directory: str) -> bool:
        return os.path.isfile(os.path.join(directory, MANIFEST_NAME))

    def listed_files(self) -> List[str]:
        return [s.file for s in self.partitions if s.file is not None]


def copy_store_into(sources: Sequence, dest) -> int:
    """Copy every feature row and segment of ``sources`` (finalized
    stores, in time order) into ``dest``, preserving global insertion
    order, and finalize it.  Returns the number of feature rows copied.

    This is the seal *and* compaction write path: partitions are written
    by the one global extractor in time order, so partition-by-partition
    concatenation reproduces the exact storage order a single store
    would hold — which is why compacting any adjacent run is lossless
    (no feature is ever recomputed, only re-homed).
    """
    total = 0
    for src in sources:
        batch = SimpleNamespace(
            **{t: src.read_table_rows(t) for t in FEATURE_TABLES}
        )
        total += sum(
            getattr(batch, t).shape[0] for t in FEATURE_TABLES
        )
        dest.add_features_bulk(batch)
        dest.add_segments_bulk(src.load_segments())
    dest.finalize()
    return total

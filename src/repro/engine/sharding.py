"""Sharded SegDiff indexes: scatter-gather, replicas, anti-entropy.

The paper's deployment is a 25-sensor transect — one index per sensor
(and optionally per time range) is the natural partition.  This module
scales the single resilient index of :mod:`repro.engine.session` out to
a :class:`ShardedIndex` that

* **routes** a ``(T, V)`` query only to shards whose sensor/time bounds
  overlap the caller's predicate,
* **scatters** the routed shards inline on the caller's thread, one
  :class:`~repro.engine.session.QuerySession` per shard replica, and
  **gathers** through the same union/dedup ordering as the executor
  (``sorted(set(pairs))``), so a one-shard deployment is bit-identical
  to a plain index,
* **fails over**: each shard may hold R replicas; a replica that times
  out or raises a storage error is skipped and the next replica is
  tried before the shard is declared lost,
* keeps partial answers **honest**: the merged
  :class:`~repro.engine.resilience.QueryOutcome` carries a
  :class:`~repro.engine.resilience.CompletenessReport` naming every
  shard that was lost — candidates from surviving shards are still a
  superset of their shards' true answers (Theorem 1), so a degraded
  answer has no false negatives *within the shards it covers*.

Silent divergence is handled by checksum anti-entropy
(:mod:`repro.storage.checksum`): every replica is sealed with a
Merkle-style segment-checksum tree at build; :meth:`ShardedIndex.verify`
compares replica trees against the shard's primary top-down, descending
only into mismatching ranges (O(k·log n) checksum comparisons for k
divergent rows), and :meth:`ShardedIndex.repair` re-copies only the
divergent row ranges from the primary — falling back to a full
rebuild-from-peer with a checksum-gated cutover when the backend cannot
address rows in place.

Time-sharding note: shards split a single series **only at gap
(episode) boundaries** — feature pairs never span a ``mark_gap()``
break, so a shard union over episode groups is exactly the single-index
answer built with the same ``max_gap``.  Cutting a continuous series
elsewhere would lose cross-boundary pairs; the builder therefore
refuses to time-shard without ``max_gap``.
"""

from __future__ import annotations

import os
import threading
import warnings
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import (
    CorruptionError,
    InvalidParameterError,
    QueryTimeout,
    StorageError,
)
from ..obs import context as obs_context
from ..obs import recorder as flight
from ..obs.metrics import REGISTRY
from ..storage.partitions import install_json, manifest_field, read_json
from ..types import SegmentPair
from .executor import _gather, _scatter
from .resilience import QueryOutcome
from .session import QueryEnvelope

__all__ = [
    "ShardSpec",
    "Shard",
    "ShardedIndex",
    "Divergence",
    "VerifyReport",
]

_FAILOVERS = REGISTRY.counter(
    "repro_shard_failovers_total",
    "Replica failovers during sharded scatter-gather",
)

_shard_query_counters: Dict[Tuple[str, str], object] = {}
_counter_lock = threading.Lock()


def _count_shard_query(shard: str, status: str) -> None:
    key = (shard, status)
    counter = _shard_query_counters.get(key)
    if counter is None:
        with _counter_lock:
            counter = _shard_query_counters.setdefault(
                key,
                REGISTRY.counter(
                    "repro_shard_queries_total",
                    "Per-shard query outcomes in a ShardedIndex",
                    {"shard": shard, "status": status},
                ),
            )
    counter.inc()


@dataclass(frozen=True)
class ShardSpec:
    """Routing metadata of one shard.

    ``t_min``/``t_max`` bound the observation timestamps the shard
    covers; ``sensor`` names the transect sensor (``None`` for a
    time-sharded single-series deployment).
    """

    shard_id: str
    t_min: float
    t_max: float
    sensor: Optional[str] = None

    def overlaps(
        self,
        sensors: Optional[Sequence[str]] = None,
        t_range: Optional[Tuple[float, float]] = None,
    ) -> bool:
        """Whether a query restricted to ``sensors``/``t_range`` can
        have answers in this shard."""
        if sensors is not None and self.sensor not in sensors:
            return False
        if t_range is not None:
            lo, hi = t_range
            if self.t_max < lo or self.t_min > hi:
                return False
        return True


@dataclass(frozen=True)
class Divergence:
    """One replica's table disagreeing with its shard's source of truth.

    ``replica == 0`` means the *primary itself* disagrees with its
    persisted (sealed) tree — bit rot on the authority; repair then
    copies from a sibling replica whose tree still matches the seal.
    ``ranges`` are the ``[start, stop)`` row ranges the top-down diff
    localized.
    """

    shard_id: str
    replica: int
    table: str
    ranges: Tuple[Tuple[int, int], ...]
    against: str = "primary"  # or "sealed"


@dataclass
class VerifyReport:
    """Outcome of one anti-entropy :meth:`ShardedIndex.verify` pass."""

    divergences: List[Divergence] = field(default_factory=list)
    #: Checksum-node comparisons made — the O(k log n) cost being
    #: asserted against a full row scan.
    ranges_checked: int = 0
    shards_checked: int = 0
    replicas_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.divergences

    def describe(self) -> str:
        if self.clean:
            return (
                f"clean: {self.shards_checked} shard(s), "
                f"{self.replicas_checked} replica(s), "
                f"{self.ranges_checked} checksum ranges compared"
            )
        lines = [
            f"{len(self.divergences)} divergence(s) in "
            f"{self.shards_checked} shard(s) "
            f"({self.ranges_checked} checksum ranges compared):"
        ]
        for d in self.divergences:
            where = ", ".join(f"[{a}, {b})" for a, b in d.ranges)
            lines.append(
                f"  shard {d.shard_id} replica {d.replica} "
                f"{d.table} vs {d.against}: rows {where}"
            )
        return "\n".join(lines)


class Shard:
    """One shard: a :class:`ShardSpec` plus R replica indexes.

    Replicas are full :class:`~repro.core.index.SegDiffIndex` builds of
    the same data (deterministic pipeline → bit-identical feature rows),
    each with its own store and session.  Queries try replicas in order;
    a failure (timeout, storage error) fails over to the next.
    """

    def __init__(self, spec: ShardSpec, replicas: Sequence) -> None:
        if not replicas:
            raise InvalidParameterError(
                f"shard {spec.shard_id!r} needs at least one replica"
            )
        self.spec = spec
        self.replicas = list(replicas)

    @property
    def shard_id(self) -> str:
        return self.spec.shard_id

    @property
    def primary(self):
        return self.replicas[0]

    def search_outcome(self, kind: str, t_threshold: float,
                       v_threshold: float, **kw) -> QueryOutcome:
        """Search this shard, failing over across replicas.

        Raises the last replica's error only after every replica failed;
        the sharded gather above converts that into a lost-shard entry
        in the merged completeness report.
        """
        last_error: Optional[BaseException] = None
        for attempt, replica in enumerate(self.replicas):
            if attempt:
                _FAILOVERS.inc()
                obs_context.account(failovers=1)
                flight.record(
                    "failover", self.shard_id,
                    replica=attempt,
                    error=type(last_error).__name__ if last_error else None,
                )
            try:
                outcome = replica.search_outcome(
                    kind, t_threshold, v_threshold, **kw
                )
            except (QueryTimeout, StorageError, OSError) as exc:
                last_error = exc
                continue
            status = "failover" if attempt else "ok"
            _count_shard_query(self.shard_id, status)
            return outcome
        _count_shard_query(self.shard_id, "lost")
        raise last_error  # every replica failed

    def close(self) -> None:
        for replica in self.replicas:
            replica.close()


class ShardedIndex:
    """N shards of SegDiff behind one query facade (module docstring)."""

    def __init__(
        self,
        shards: Sequence[Shard],
        epsilon: float,
        window: float,
        max_workers: Optional[int] = None,
    ) -> None:
        if not shards:
            raise InvalidParameterError("a ShardedIndex needs >= 1 shard")
        ids = [s.shard_id for s in shards]
        if len(set(ids)) != len(ids):
            raise InvalidParameterError(f"duplicate shard ids in {ids}")
        self.epsilon = float(epsilon)
        self.window = float(window)
        self._shards: Dict[str, Shard] = {s.shard_id: s for s in shards}
        _warn_max_workers(max_workers)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build_transect(
        cls,
        sensors: Mapping[str, object],
        epsilon: float,
        window: float,
        replicas: int = 1,
        backend: str = "memory",
        directory: Optional[str] = None,
        max_gap: Optional[float] = None,
        leaf_size: Optional[int] = None,
        max_workers: Optional[int] = None,
    ) -> "ShardedIndex":
        """One shard per transect sensor (the paper's 25-sensor layout).

        ``sensors`` maps sensor id to its :class:`TimeSeries`.  Each
        shard holds ``replicas`` independent builds of its sensor's
        series; with ``backend="sqlite"`` and a ``directory`` the
        replica files land at ``<dir>/<sensor>-r<i>.sqlite`` (the layout
        :meth:`save`/:meth:`open` use), so every sensor id must then be a
        plain file name.  Every replica is sealed with its checksum
        trees.  Per-sensor answers route with ``sensors=[name]``;
        :meth:`search_corroborated` asks the transect-level question.
        """
        _warn_max_workers(max_workers)
        parts = [(str(k), str(k), series) for k, series in sensors.items()]
        return cls._build(
            parts, epsilon, window, replicas, backend, directory,
            max_gap, leaf_size,
        )

    @classmethod
    def build(
        cls,
        series,
        epsilon: float,
        window: float,
        n_shards: int,
        max_gap: float,
        replicas: int = 1,
        backend: str = "memory",
        directory: Optional[str] = None,
        leaf_size: Optional[int] = None,
        max_workers: Optional[int] = None,
    ) -> "ShardedIndex":
        """Time-shard one series at its gap (episode) boundaries.

        Episodes (runs with no sampling gap over ``max_gap`` seconds)
        are grouped into up to ``n_shards`` contiguous time ranges, one
        shard each.  Feature pairs never span a gap, so the union over
        shards equals a single index built with the same ``max_gap`` —
        splitting anywhere else would lose cross-boundary pairs, hence
        ``max_gap`` is required here.
        """
        from ..core.index import _split_episodes
        from ..datagen.series import TimeSeries

        _warn_max_workers(max_workers)
        if n_shards < 1:
            raise InvalidParameterError("n_shards must be >= 1")
        ts = np.ascontiguousarray(series.times, dtype=float)
        vs = np.ascontiguousarray(series.values, dtype=float)
        episodes = _split_episodes(ts, vs, max_gap)
        n_groups = min(n_shards, len(episodes))
        bounds = [
            round(j * len(episodes) / n_groups) for j in range(n_groups + 1)
        ]
        groups = [
            episodes[a:b] for a, b in zip(bounds, bounds[1:]) if b > a
        ]
        parts = [
            (f"t{i}", None, TimeSeries(
                times=np.concatenate([e[0] for e in group]),
                values=np.concatenate([e[1] for e in group]),
            ))
            for i, group in enumerate(groups)
        ]
        return cls._build(
            parts, epsilon, window, replicas, backend, directory,
            max_gap, leaf_size,
        )

    @classmethod
    def _build(
        cls, parts, epsilon, window, replicas, backend, directory,
        max_gap, leaf_size,
    ) -> "ShardedIndex":
        """One shard per ``(shard_id, sensor, series)`` part, each holding
        ``replicas`` builds of the series sealed with their checksum
        trees.  A file-backed build checks every shard id before writing
        any file; a failed build closes every index it already built and
        re-raises."""
        from ..core.index import SegDiffIndex

        file_backed = directory is not None and backend != "memory"
        if file_backed:
            for shard_id, _sensor, _series in parts:
                _check_file_name(shard_id)
        with ExitStack() as built:
            shards = []
            for shard_id, sensor, series in parts:
                ts = np.asarray(series.times, dtype=float)
                spec = ShardSpec(
                    shard_id=shard_id,
                    t_min=float(ts[0]) if ts.size else 0.0,
                    t_max=float(ts[-1]) if ts.size else 0.0,
                    sensor=sensor,
                )
                indexes = []
                for i in range(max(1, int(replicas))):
                    fname = f"{shard_id}-r{i}.sqlite"
                    index = built.enter_context(SegDiffIndex.build(
                        series, epsilon, window, backend=backend,
                        path=os.path.join(directory, fname) if file_backed else None,
                        max_gap=max_gap,
                    ))
                    index.seal_checksums(leaf_size)
                    indexes.append(index)
                shards.append(Shard(spec, indexes))
            sharded = cls(shards, epsilon, window)
            built.pop_all()
        return sharded

    @classmethod
    def open(
        cls,
        directory: str,
        max_workers: Optional[int] = None,
    ) -> "ShardedIndex":
        """Reopen a sharded index saved by a ``directory`` build.

        Reads ``manifest.json`` and opens every replica file; if any
        fails to open, the ones already opened are closed.
        """
        from ..core.index import SegDiffIndex

        _warn_max_workers(max_workers)
        path = os.path.join(directory, "manifest.json")
        manifest = read_json(path, "shard manifest")
        get = partial(manifest_field, path)
        epsilon = get(manifest, "epsilon", float)
        window = get(manifest, "window", float)
        with ExitStack() as opened:
            shards = []
            for entry in get(manifest, "shards", list):
                spec = ShardSpec(
                    shard_id=get(entry, "shard_id", str),
                    t_min=get(entry, "t_min", float),
                    t_max=get(entry, "t_max", float),
                    sensor=get(entry, "sensor", str, optional=True),
                )
                if any(s.shard_id == spec.shard_id for s in shards):
                    raise CorruptionError(f"{path}: shard {spec.shard_id!r} "
                                          "is listed twice")
                fnames = get(entry, "replicas", list)
                if not fnames or not all(
                    isinstance(f, str) and os.path.basename(f) == f
                    and os.path.isfile(os.path.join(directory, f))
                    for f in fnames
                ):
                    raise CorruptionError(
                        f"{path}: shard {spec.shard_id!r} field 'replicas' "
                        f"must list >= 1 file of the directory, got {fnames!r}"
                    )
                replicas = [
                    opened.enter_context(
                        SegDiffIndex.open(os.path.join(directory, fname))
                    )
                    for fname in fnames
                ]
                shards.append(Shard(spec, replicas))
            if not shards:
                raise CorruptionError(f"{path}: field 'shards' lists no shard")
            sharded = cls(shards, epsilon, window)
            opened.pop_all()
        return sharded

    def save_manifest(self, directory: str, _fs=None) -> str:
        """Atomically install ``manifest.json`` for a directory-backed
        build (:func:`~repro.storage.partitions.install_json`): a crash
        mid-save leaves the previous manifest or the new one, never a
        torn file beside intact replicas.  ``_fs`` is the fault matrix's
        filesystem facade."""
        entries = []
        for shard in self.shards:
            fnames = []
            for i, replica in enumerate(shard.replicas):
                path = getattr(replica.store, "path", None)
                if path is None:
                    raise StorageError(
                        f"shard {shard.shard_id} replica {i} has no "
                        "backing file; only file-backed sharded indexes "
                        "can be saved"
                    )
                fnames.append(os.path.basename(path))
            entries.append(
                {
                    "shard_id": shard.shard_id,
                    "t_min": shard.spec.t_min,
                    "t_max": shard.spec.t_max,
                    "sensor": shard.spec.sensor,
                    "replicas": fnames,
                }
            )
        manifest = {
            "epsilon": self.epsilon,
            "window": self.window,
            "shards": entries,
        }
        path = os.path.join(directory, "manifest.json")
        install_json(_fs, path, manifest)
        return path

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def shards(self) -> List[Shard]:
        return list(self._shards.values())

    @property
    def shard_ids(self) -> List[str]:
        return list(self._shards)

    def shard(self, shard_id: str) -> Shard:
        try:
            return self._shards[shard_id]
        except KeyError:
            raise InvalidParameterError(
                f"unknown shard {shard_id!r}; have {list(self._shards)}"
            ) from None

    # ------------------------------------------------------------------ #
    # scatter-gather search
    # ------------------------------------------------------------------ #

    def route(
        self,
        sensors: Optional[Sequence[str]] = None,
        t_range: Optional[Tuple[float, float]] = None,
    ) -> List[Shard]:
        """The shards a query restricted this way must visit."""
        return [
            s for s in self._shards.values()
            if s.spec.overlaps(sensors, t_range)
        ]

    def search_drops(self, t_threshold: float, v_threshold: float,
                     **kw) -> List[SegmentPair]:
        return self.search_outcome(
            "drop", t_threshold, v_threshold, **kw
        ).pairs

    def search_jumps(self, t_threshold: float, v_threshold: float,
                     **kw) -> List[SegmentPair]:
        return self.search_outcome(
            "jump", t_threshold, v_threshold, **kw
        ).pairs

    def search_outcome(
        self,
        kind: str,
        t_threshold: float,
        v_threshold: float,
        mode: str = "index",
        sensors: Optional[Sequence[str]] = None,
        t_range: Optional[Tuple[float, float]] = None,
        **kw,
    ) -> QueryOutcome:
        """Scatter one ``(T, V)`` search over the routed shards and merge.

        ``sensors``/``t_range`` restrict routing; remaining keywords
        (``timeout_ms``, ``cache``) pass through to every shard
        session.  One scatter, one gather
        (:func:`~repro.engine.executor._scatter`, inline, and
        ``_gather``): the merged outcome
        is COMPLETE when every routed shard answered (possibly via
        replica failover), DEGRADED when some shards were lost (the
        completeness report names them), and FAILED when no shard
        answered.
        """
        return self._fan_out(
            kind, t_threshold, v_threshold, mode,
            self.route(sensors, t_range), **kw,
        )[1]

    def search_corroborated(
        self,
        t_threshold: float,
        v_threshold: float,
        min_sensors: int = 2,
        slack: float = 1800.0,
        mode: str = "index",
        cache: str = "warm",
    ) -> list:
        """Drops seen by at least ``min_sensors`` sensors whose end
        intervals, padded by ``slack / 2`` seconds, overlap — a list of
        :class:`~repro.core.transect.CorroboratedEvent`.

        The same fan-out as :meth:`search_outcome` over every shard; the
        per-shard answers are grouped by ``shard.spec.sensor`` and swept
        by :func:`~repro.core.transect.corroborate`.  A transect missing
        a sensor would silently report fewer events, so a lost shard
        raises its error instead.  A time-sharded index has no sensors
        to corroborate across and is rejected.
        """
        from ..core.transect import corroborate

        sensors = {shard.spec.sensor for shard in self._shards.values()}
        if None in sensors:
            raise InvalidParameterError(
                "corroboration needs one sensor per shard; this index "
                "is time-sharded"
            )
        if min_sensors < 1:
            raise InvalidParameterError("min_sensors must be >= 1")
        if min_sensors > len(sensors):
            raise InvalidParameterError(
                f"min_sensors={min_sensors} exceeds the "
                f"{len(sensors)} sensors indexed"
            )
        if slack < 0:
            raise InvalidParameterError("slack must be >= 0")
        routed = self.shards
        results, outcome = self._fan_out(
            "drop", t_threshold, v_threshold, mode, routed, cache=cache
        )
        if outcome.error is not None:  # a shard was lost
            raise outcome.error
        per_sensor: Dict[str, List[np.ndarray]] = {}
        for shard, result in zip(routed, results):
            per_sensor.setdefault(shard.spec.sensor, []).append(result.rows)
        return corroborate(
            {sensor: np.vstack(blocks)
             for sensor, blocks in per_sensor.items()},
            min_sensors, slack,
        )

    def _fan_out(self, kind, t_threshold, v_threshold, mode, routed,
                 **kw) -> Tuple[List, QueryOutcome]:
        """Scatter one search over ``routed`` under one envelope:
        ``(per-shard results, merged outcome)``.  A lost shard's result
        is its exception."""
        labels = [shard.shard_id for shard in routed]
        with QueryEnvelope("shard_search", "sharded") as env:
            results = _scatter(
                labels, routed,
                lambda shard: shard.search_outcome(
                    kind, t_threshold, v_threshold, mode=mode, **kw
                ),
                "shard.scatter_gather", "shard",
                query_id=env.ctx.query_id, kind=kind, shards=len(routed),
            )
            merged = _gather(labels, results, "shard")
            env.done(
                lambda: f"sharded[{len(routed)}/{len(self._shards)}s] {kind}"
                f"(T={t_threshold:g}, V={v_threshold:g}) mode={mode}",
                merged.rows.shape[0], merged.status.value,
            )
        return results, env.stamp([merged])[0]

    # ------------------------------------------------------------------ #
    # anti-entropy: verify / repair
    # ------------------------------------------------------------------ #

    def verify(
        self,
        shard_id: Optional[str] = None,
        leaf_size: Optional[int] = None,
    ) -> VerifyReport:
        """Compare every replica's checksum trees against its shard's
        primary, top-down (data-diff style).

        Two comparisons per shard: the primary's *recomputed* trees
        against its *sealed* (persisted) trees — catching bit rot on the
        authority itself — and every other replica's recomputed trees
        against the primary's.  Only mismatching subtrees are descended,
        so k divergent rows cost O(k·log n) checksum comparisons (the
        ``repro_verify_ranges_checked`` counter records them).
        """
        from ..storage import checksum as cks

        report = VerifyReport()
        shards = (
            [self.shard(shard_id)] if shard_id is not None else self.shards
        )
        for shard in shards:
            report.shards_checked += 1
            primary = shard.primary
            sealed = cks.load_trees(primary.store)
            # recompute with the sealed trees' leaf size unless the
            # caller overrides, so shapes stay comparable
            size = leaf_size
            if size is None and sealed is not None:
                size = next(iter(sealed.values())).leaf_size
            kw = {} if size is None else {"leaf_size": size}
            primary_trees = cks.store_trees(primary.store, **kw)
            if sealed is not None:
                report.replicas_checked += 1
                for table, tree in primary_trees.items():
                    ranges, checked = cks.diff_trees(sealed[table], tree)
                    report.ranges_checked += checked
                    if ranges:
                        report.divergences.append(
                            Divergence(
                                shard_id=shard.shard_id,
                                replica=0,
                                table=table,
                                ranges=tuple(ranges),
                                against="sealed",
                            )
                        )
            for r, replica in enumerate(shard.replicas[1:], start=1):
                report.replicas_checked += 1
                replica_trees = cks.store_trees(replica.store, **kw)
                for table, tree in primary_trees.items():
                    ranges, checked = cks.diff_trees(
                        tree, replica_trees[table]
                    )
                    report.ranges_checked += checked
                    if ranges:
                        report.divergences.append(
                            Divergence(
                                shard_id=shard.shard_id,
                                replica=r,
                                table=table,
                                ranges=tuple(ranges),
                            )
                        )
        return report

    def repair(
        self,
        report: Optional[VerifyReport] = None,
        leaf_size: Optional[int] = None,
    ) -> VerifyReport:
        """Re-copy divergent row ranges and re-verify.

        For each divergence, rows are copied from the shard's source of
        truth — the primary for replica divergences; for a primary that
        drifted from its own seal, the first sibling replica whose tree
        still matches the sealed one.  Backends without positional row
        replacement fall back to a full rebuild-from-peer whose cutover
        is checksum-gated (the rebuilt store must match the source tree
        before it replaces the replica).  Returns the post-repair
        verify report; ``clean`` means convergence.
        """
        if report is None:
            report = self.verify(leaf_size=leaf_size)
        rebuilt: set = set()
        for div in report.divergences:
            shard = self.shard(div.shard_id)
            if (div.shard_id, div.replica) in rebuilt:
                continue
            source = self._source_for(shard, div)
            if source is None:
                continue  # unrepairable: no trusted peer (stays in report)
            target = shard.replicas[div.replica]
            try:
                for start, stop in div.ranges:
                    rows = source.store.read_table_rows(
                        div.table, start, stop
                    )
                    target.store.replace_table_rows(div.table, start, rows)
                flight.record(
                    "checksum_repair", div.shard_id,
                    replica=div.replica, table=div.table,
                    ranges=len(div.ranges), method="range_copy",
                )
            except StorageError:
                self._rebuild_replica(shard, div.replica, source)
                rebuilt.add((div.shard_id, div.replica))
                flight.record(
                    "checksum_repair", div.shard_id,
                    replica=div.replica, table=div.table,
                    ranges=len(div.ranges), method="rebuild",
                )
            if div.replica == 0 and div.against == "sealed":
                # the authority was repaired from a peer: re-seal so the
                # persisted trees describe the repaired rows
                shard.primary.seal_checksums(leaf_size)
        return self.verify(leaf_size=leaf_size)

    def _source_for(self, shard: Shard, div: Divergence):
        """The replica to copy healthy rows from."""
        from ..storage import checksum as cks

        if div.replica != 0:
            return shard.primary
        # the primary itself drifted: trust the first sibling whose
        # recomputed tree for this table matches the sealed root
        sealed = cks.load_trees(shard.primary.store)
        if sealed is None:
            return None
        for replica in shard.replicas[1:]:
            tree = cks.build_tree(
                replica.store.read_table_rows(div.table),
                div.table,
                sealed[div.table].leaf_size,
            )
            if tree.root == sealed[div.table].root:
                return replica
        return None

    def _rebuild_replica(self, shard: Shard, r: int, source) -> None:
        """Full rebuild-from-peer with a checksum-gated cutover.

        Streams every feature row and segment from ``source`` into a
        fresh in-memory store, verifies the rebuilt trees match the
        source's before cutover, then swaps the replica's store.  The
        old store is closed only after the gate passes.
        """
        from ..storage import checksum as cks
        from ..storage.memory_store import MemoryFeatureStore

        from types import SimpleNamespace

        target = shard.replicas[r]
        fresh = MemoryFeatureStore()
        batch = SimpleNamespace(
            drop_points=source.store.read_table_rows("drop_points"),
            drop_lines=source.store.read_table_rows("drop_lines"),
            jump_points=source.store.read_table_rows("jump_points"),
            jump_lines=source.store.read_table_rows("jump_lines"),
        )
        fresh.add_features_bulk(batch)
        fresh.add_segments_bulk(source.store.load_segments())
        fresh.finalize()
        for key in ("epsilon", "window", "n_observations", "sealed"):
            value = source.store.get_meta(key)
            if value is not None:
                fresh.set_meta(key, value)
        source_trees = cks.store_trees(source.store)
        rebuilt_trees = cks.store_trees(fresh)
        for table, tree in source_trees.items():
            if tree.root != rebuilt_trees[table].root:
                fresh.close()
                raise StorageError(
                    f"rebuild of shard {shard.shard_id} replica {r} "
                    f"failed its checksum gate on {table}; cutover refused"
                )
        cks.persist_trees(fresh, rebuilt_trees)
        old_store = target.store
        target.store = fresh
        target._session = None  # sessions cache the old store
        old_store.close()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, object]:
        """Shard layout summary (counts, bounds, replica fan-out)."""
        return {
            "n_shards": len(self._shards),
            "shards": [
                {
                    "shard_id": s.shard_id,
                    "sensor": s.spec.sensor,
                    "t_min": s.spec.t_min,
                    "t_max": s.spec.t_max,
                    "replicas": len(s.replicas),
                    "rows": s.primary.store.counts().total,
                }
                for s in self._shards.values()
            ],
        }

    def close(self) -> None:
        for shard in self._shards.values():
            shard.close()

    def __enter__(self) -> "ShardedIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _warn_max_workers(max_workers: Optional[int]) -> None:
    """``max_workers`` is accepted and ignored: every routed shard runs
    inline on the caller's thread, where the GIL put it anyway."""
    if max_workers is not None:
        warnings.warn(
            "max_workers does nothing: shards run on the caller's thread",
            DeprecationWarning, stacklevel=3,
        )


def _check_file_name(shard_id: str) -> None:
    """A file-backed shard names its replica files after its id, so the
    id must be a plain file name."""
    if shard_id in ("", ".", "..") or any(
        sep and sep in shard_id for sep in (os.sep, os.altsep)
    ):
        raise InvalidParameterError(
            f"shard id {shard_id!r} is not a plain file name; a "
            "file-backed build names its replica files after it"
        )

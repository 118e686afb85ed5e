"""Direct per-layer probes: one layer's public functions, called alone.

A traced run (tracing.py) gets the layers' shares of real queries from
spans; the probes here give each layer's own rate on the workload's
data, free of everything around it — segmentation without extraction,
extraction into a discarding sink, a store fed pre-extracted batches.
Each probe times its calls through the run's ``Recorder`` (phases
``probe.*``), so they are corrected for host speed like everything
else, and returns ``{metric name: value}`` for catalog.PER_LAYER.
"""

from __future__ import annotations

import gc
import os
import shutil
from typing import Dict, List, Sequence

import numpy as np

from repro.core.extraction import FeatureExtractor
from repro.core.live import LiveIndex
from repro.engine.session import QuerySession
from repro.obs import REGISTRY
from repro.segmentation.sliding_window import SlidingWindowSegmenter
from repro.storage import checksum
from repro.storage.livewal import LiveWAL
from repro.storage.memory_store import MemoryFeatureStore
from repro.storage.minidb import MiniDbFeatureStore
from repro.storage.partitions import copy_store_into
from repro.storage.sqlite_store import SqliteFeatureStore

from .harness import Recorder, median
from .inputs import EPSILON, WINDOW, query_kind

__all__ = ["write_side", "read_side", "live_side", "shard_side"]


class _BatchSink:
    """Store stand-in for the extractor: keeps the batches, writes
    nothing."""

    def __init__(self) -> None:
        self.batches: List = []

    def add_features_bulk(self, batch) -> None:
        self.batches.append(batch)


def _new_store(backend: str, path: str):
    if backend == "memory":
        return MemoryFeatureStore()
    if os.path.exists(path):
        os.remove(path)
    if backend == "sqlite":
        return SqliteFeatureStore(path)
    return MiniDbFeatureStore(path)


def _arrays(series):
    return (np.ascontiguousarray(series.times, dtype=float),
            np.ascontiguousarray(series.values, dtype=float))


def write_side(rec: Recorder, series, backend: str, scratch: str,
               reps: int):
    """Segmentation, extraction and store write, each alone.

    Returns the metrics and the last store written (finalized, open),
    which ``read_side`` then reads.
    """
    ts, vs = _arrays(series)
    n = ts.shape[0]
    path = os.path.join(scratch, f"probe-store.{backend}")
    store = None
    for _ in range(reps):
        gc.collect()
        segments = rec.run(
            "probe.segment", 0,
            SlidingWindowSegmenter(EPSILON).segment_array, ts, vs)
        sink = _BatchSink()
        extractor = FeatureExtractor(EPSILON, WINDOW, sink)
        rec.run("probe.extract", 0, extractor.add_segments_batch, segments)

        if store is not None:
            store.close()
        store = _new_store(backend, path)

        def write():
            for batch in sink.batches:
                store.add_features_bulk(batch)
            store.add_segments_bulk(segments)

        rec.run("probe.store_write", 0, write)
        rec.run("probe.store_finalize", 0, store.finalize)
    rec.run("probe.checksum", 0, lambda: checksum.persist_trees(
        store, checksum.store_trees(store)))
    rec.settle()

    stats = extractor.stats
    rows = sum(b.total_features for b in sink.batches)
    return {
        "segmentation.points_per_s": n / rec.median_of("probe.segment"),
        "segmentation.segments": len(segments),
        "segmentation.compression_rate": n / len(segments),
        "extraction.pairs_per_s": (stats.n_pairs + stats.n_self_pairs)
        / rec.median_of("probe.extract"),
        "extraction.features": rows,
        "extraction.features_per_point": rows / n,
        "store.write_rows_per_s": rows / rec.median_of("probe.store_write"),
        "store.finalize_s": rec.median_of("probe.store_finalize"),
        "store.feature_bytes_per_point": store.feature_bytes() / n,
        "store.index_bytes_per_point": store.index_bytes() / n,
        "checksum.seal_s": rec.median_of("probe.checksum"),
    }, store


def read_side(rec: Recorder, store, queries: Sequence) -> Dict[str, float]:
    """The four array primitives and the planner, per query."""
    session = QuerySession(store)
    index_plans = 0
    gc.collect()
    for i, q in enumerate(queries):
        kind, t, v = query_kind(q), q.t_threshold, q.v_threshold
        plan = rec.run("probe.plan", i, session.plan, q, mode="auto")
        index_plans += plan.point_op.access == "index"
        rec.run("probe.scan_points", i, store.scan_points_array, kind,
                t_threshold=t, v_threshold=v)
        rec.run("probe.probe_points", i, store.probe_point_index_array,
                kind, t, v_threshold=v)
        rec.run("probe.scan_lines", i, store.scan_lines_array, kind,
                t_threshold=t, v_threshold=v)
        rec.run("probe.probe_lines", i, store.probe_line_index_array,
                kind, t, v_threshold=v)
    rec.settle()

    def ms_p50(phase: str) -> float:
        return 1e3 * median(rec.all_samples(phase))

    return {
        "store.scan_points_ms_p50": ms_p50("probe.scan_points"),
        "store.probe_points_ms_p50": ms_p50("probe.probe_points"),
        "store.scan_lines_ms_p50": ms_p50("probe.scan_lines"),
        "store.probe_lines_ms_p50": ms_p50("probe.probe_lines"),
        "cost.plan_ms_p50": ms_p50("probe.plan"),
        "cost.auto_index_share": index_plans / len(queries),
    }


def _counter(name: str) -> float:
    """Sum of every labelled series of registry counter ``name``."""
    return sum(
        v for k, v in REGISTRY.snapshot().items()
        if k == name or k.startswith(name + "{")
    )


def live_side(workload, rec: Recorder, scratch: str) -> Dict[str, float]:
    """The live tier's layers apart: appends without seals, seals alone,
    the WAL alone, the seal's copy alone, reopen, and the pager's
    counters under the query mix."""
    out: Dict[str, float] = {}
    scale = workload.scale
    n = workload.n_points
    directory = os.path.join(scratch, "probe-live")

    # appends with sealing held off, and explicit, separately timed seals
    live = LiveIndex(EPSILON, WINDOW, directory=directory,
                     backend=workload.backend, seal_rows=2**62)
    syncs = _counter("repro_live_wal_syncs_total")
    seal_writes = 0.0
    try:
        for day, (ts, vs) in enumerate(workload.days()):
            rec.run("probe.live_append", day, live.append_array, ts, vs)
            if live.stats()["hot"]["rows"] >= scale.seal_rows:
                writes = _counter("repro_minidb_disk_writes_total")
                rec.run("probe.live_seal", day, live.seal)
                seal_writes += (
                    _counter("repro_minidb_disk_writes_total") - writes)
    finally:
        live.close()
    out["livewal.syncs"] = _counter("repro_live_wal_syncs_total") - syncs

    # reopen (WAL replay of the unsealed tail), then finalize and read
    # the pager's counters under the query mix
    live = rec.run("probe.live_reopen", 0, LiveIndex.open, directory)
    try:
        out["livewal.replayed_obs"] = (
            live.stats()["wal"]["replayed_observations"])
        live.finalize()
        probe_queries = workload.queries[:scale.probe_queries]
        with live.snapshot() as snap:
            for q in probe_queries:
                snap.execute(q, mode="auto")  # warm the pools
            hits = _counter("repro_minidb_pool_hits_total")
            misses = _counter("repro_minidb_pool_misses_total")
            for q in probe_queries:
                snap.execute(q, mode="auto")
            hits = _counter("repro_minidb_pool_hits_total") - hits
            misses = _counter("repro_minidb_pool_misses_total") - misses
    finally:
        live.close()
    shutil.rmtree(directory)
    out["minidb.pages_read_per_query"] = (hits + misses) / len(probe_queries)
    out["minidb.pool_hit_ratio"] = hits / max(hits + misses, 1)

    # the WAL alone, same chunking as the ingest
    wal = LiveWAL(os.path.join(scratch, "probe.wal"))  # sync_obs=4096
    try:
        for day, (ts, vs) in enumerate(workload.days()):
            rec.run("probe.wal_append", day, wal.append, ts, vs)
        out["livewal.bytes_per_point"] = wal.size_bytes / n
    finally:
        wal.close(delete=True)

    # the seal's copy alone: one seal's worth of rows, memory -> minidb
    source = MemoryFeatureStore()
    sink = _BatchSink()
    extractor = FeatureExtractor(EPSILON, WINDOW, sink)
    segments = SlidingWindowSegmenter(EPSILON).segment_array(
        *_arrays(workload.series))
    for lo in range(0, len(segments), 64):
        extractor.add_segments_batch(segments[lo:lo + 64])
        source.add_segments_bulk(segments[lo:lo + 64])
        if sum(b.total_features for b in sink.batches) >= scale.seal_rows:
            break
    for batch in sink.batches:
        source.add_features_bulk(batch)
    source.finalize()
    for _ in range(scale.min_rounds):
        dest = _new_store(workload.backend,
                          os.path.join(scratch, "probe-copy.minidb"))
        try:
            gc.collect()
            copied = rec.run("probe.copy", 0, copy_store_into, [source],
                             dest)
        finally:
            dest.close()
    rec.settle()

    appends = sum(rec.all_samples("probe.live_append"))
    seals = rec.all_samples("probe.live_seal")
    out["live.append_points_per_s"] = n / appends
    out["live.seals"] = len(seals)
    if seals:
        out["live.seal_ms_p50"] = 1e3 * median(seals)
        out["live.seal_ms_max"] = 1e3 * max(seals)
        out["minidb.disk_writes_per_seal"] = seal_writes / len(seals)
    out["live.seal_share"] = sum(seals) / (appends + sum(seals))
    out["live.reopen_ms"] = 1e3 * rec.median_of("probe.live_reopen")
    out["livewal.append_points_per_s"] = (
        n / sum(rec.all_samples("probe.wal_append")))
    out["partitions.copy_rows_per_s"] = copied / rec.median_of("probe.copy")
    return out


def shard_side(workload, rec: Recorder, sharded) -> Dict[str, float]:
    """What the fan-out adds: every shard asked serially, on the client
    thread, against the same queries' fan-out medians."""
    k = workload.scale.probe_queries
    shards = sharded.route(None, None)
    for i, q in enumerate(workload.queries[:k]):
        for shard in shards:
            rec.run("probe.shard_serial", i, shard.search_outcome,
                    query_kind(q), q.t_threshold, q.v_threshold,
                    mode="index")
    rec.settle()
    sums = [sum(rec.samples["probe.shard_serial"][i]) for i in range(k)]
    n_routed = [len(shards)] * len(workload.queries) + [
        len(sharded.route([workload.names[si]], None))
        for _qi, si in workload.routed
    ]
    return {
        "sharding.shard_sum_ms_p50": 1e3 * median(sums),
        "sharding.scatter_overhead_ratio":
            sum(rec.op_medians("query")[:k]) / sum(sums),
        "sharding.shards_routed_mean": float(np.mean(n_routed)),
    }

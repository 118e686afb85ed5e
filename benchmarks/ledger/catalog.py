"""Names, units and directions of every metric the ledger prints.

``BENCHMARK.json`` at the repository root lists the same metrics (the
smoke test checks the two agree); README.md says which end-to-end metric
each per-layer metric is expected to move, on which workload.
"""

from __future__ import annotations

__all__ = ["END_TO_END", "PER_LAYER", "RUN_SECONDS"]

#: Seconds one run measures (``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 16

#: (name, unit, better, bound).  A bound is about three times the widest
#: run-to-run spread STABILITY.md records for the metric on any
#: workload, capped at the 25 % the contract allows (every timing hits
#: the cap: this box will not repeat a timing to better than 5-15 %).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("write_points_per_s", "points/s", "higher", 0.25),
    ("bytes_per_point", "B/point", "lower", 0.08),
    ("query_p50_ms", "ms", "lower", 0.25),
    ("query_p90_ms", "ms", "lower", 0.25),
    ("queries_per_s", "queries/s", "higher", 0.25),
    ("grid_cells_per_s", "cells/s", "higher", 0.25),
    ("cold_query_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: (name, unit, better).  A workload that does not exercise a layer
#: reports 0 for it (no minidb pages on hist_sqlite, no seals on
#: hist_memory): every workload prints every name.
PER_LAYER = (
    ("segmentation.points_per_s", "points/s", "higher"),
    ("segmentation.segments", "count", "lower"),
    ("segmentation.compression_rate", "points/seg", "higher"),
    ("extraction.pairs_per_s", "pairs/s", "higher"),
    ("extraction.features", "count", "lower"),
    ("extraction.features_per_point", "rows/point", "lower"),
    ("store.write_rows_per_s", "rows/s", "higher"),
    ("store.finalize_s", "s", "lower"),
    ("store.feature_bytes_per_point", "B/point", "lower"),
    ("store.index_bytes_per_point", "B/point", "lower"),
    ("store.scan_points_ms_p50", "ms", "lower"),
    ("store.probe_points_ms_p50", "ms", "lower"),
    ("store.scan_lines_ms_p50", "ms", "lower"),
    ("store.probe_lines_ms_p50", "ms", "lower"),
    ("store.rows_fetched_per_query", "rows", "lower"),
    ("store.open_ms", "ms", "lower"),
    ("minidb.pages_read_per_query", "pages", "lower"),
    ("minidb.pool_hit_ratio", "ratio", "higher"),
    ("minidb.disk_writes_per_seal", "count", "lower"),
    ("cost.plan_ms_p50", "ms", "lower"),
    ("cost.auto_index_share", "ratio", "higher"),
    ("executor.execute_ms_p50", "ms", "lower"),
    ("executor.self_ms_p50", "ms", "lower"),
    ("executor.rows_fetched_per_pair", "ratio", "lower"),
    ("executor.refine_kept_ratio", "ratio", "higher"),
    ("executor.batch_cells_per_s", "cells/s", "higher"),
    ("session.overhead_ms_p50", "ms", "lower"),
    ("sharding.shard_sum_ms_p50", "ms", "lower"),
    ("sharding.scatter_overhead_ratio", "ratio", "lower"),
    ("sharding.routed_ms_p50", "ms", "lower"),
    ("sharding.shards_routed_mean", "count", "lower"),
    ("sharding.open_ms", "ms", "lower"),
    ("checksum.seal_s", "s", "lower"),
    ("live.append_points_per_s", "points/s", "higher"),
    ("live.seal_ms_p50", "ms", "lower"),
    ("live.seal_ms_max", "ms", "lower"),
    ("live.seals", "count", "lower"),
    ("live.seal_share", "ratio", "lower"),
    ("live.snapshot_ms_p50", "ms", "lower"),
    ("live.partitions_scanned_mean", "count", "lower"),
    ("live.partitions_pruned_mean", "count", "higher"),
    ("live.reopen_ms", "ms", "lower"),
    ("live.finalize_s", "s", "lower"),
    ("partitions.copy_rows_per_s", "rows/s", "higher"),
    ("partitions.manifest_save_ms", "ms", "lower"),
    ("livewal.append_points_per_s", "points/s", "higher"),
    ("livewal.bytes_per_point", "B/point", "lower"),
    ("livewal.syncs", "count", "lower"),
    ("livewal.rewrite_ms_p50", "ms", "lower"),
    ("livewal.replayed_obs", "count", "lower"),
    ("host.calib_ms_p50", "ms", "lower"),
    ("host.calib_spread", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

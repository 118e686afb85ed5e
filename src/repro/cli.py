"""Command-line interface: ``segdiff`` (or ``python -m repro``).

Subcommands:

* ``generate`` — write synthetic CAD data to CSV;
* ``smooth``   — apply the paper's robust-smoothing preprocessing;
* ``build``    — build a persistent SegDiff index (SQLite) from CSV;
* ``ingest``   — stream CSV into a live, time-partitioned index
  directory (resumable: replayed observations are skipped);
* ``compact``  — merge small sealed partitions of a live directory
  (and optionally run TTL retention);
* ``search``   — run a drop/jump search against a built index;
* ``explain``  — show the engine's chosen plan with estimated vs actual
  row counts (EXPLAIN ANALYZE for a search);
* ``stats``    — report a built index's sizes and composition;
* ``fsck``     — check a database file (MiniDB or SQLite) or a live
  partition directory (manifest, checksum trees, WAL) for corruption;
* ``shard-build`` — build a replicated, time-sharded index directory;
* ``verify``   — checksum anti-entropy: compare sealed/replica trees;
* ``repair``   — re-copy divergent ranges from a healthy peer;
* ``experiments`` — run the paper's evaluation tables.

Example session::

    segdiff generate --days 7 --out week.csv
    segdiff smooth week.csv --out smooth.csv
    segdiff build smooth.csv --epsilon 0.2 --window-hours 8 --index cad.idx
    segdiff search cad.idx --drop -3 --within-minutes 60
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import List, Optional

from . import __version__
from .core.index import DEFAULT_BATCH_SIZE, SegDiffIndex
from .core.live import LiveIndex
from .datagen import (
    CADConfig,
    CADTransectGenerator,
    iter_series_csv,
    load_series_csv,
    robust_loess,
    save_series_csv,
)
from .errors import ReproError
from .storage import SqliteFeatureStore
from .storage.partitions import PartitionManifest

HOUR = 3600.0


def cmd_generate(args: argparse.Namespace) -> int:
    cfg = CADConfig(days=args.days, seed=args.seed, n_sensors=args.sensors)
    gen = CADTransectGenerator(cfg)
    series = gen.generate(args.sensor)
    save_series_csv(series, args.out)
    print(
        f"wrote {len(series)} observations ({args.days} days, sensor "
        f"{gen.sensor_names()[args.sensor]}) to {args.out}; "
        f"{len(gen.events)} CAD events injected"
    )
    return 0


def cmd_smooth(args: argparse.Namespace) -> int:
    series = load_series_csv(args.input)
    smoothed = robust_loess(series, span=args.span, iterations=args.iterations)
    save_series_csv(smoothed, args.out)
    print(f"smoothed {len(series)} observations -> {args.out}")
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    window = args.window_hours * HOUR
    if args.resume:
        index = SegDiffIndex.resume(args.index)
        if index.epsilon != args.epsilon or index.window != window:
            print(
                f"note: resuming with checkpointed epsilon={index.epsilon}, "
                f"window={index.window / HOUR:.1f}h (flags ignored)",
                file=sys.stderr,
            )
    else:
        store = SqliteFeatureStore(args.index)
        index = SegDiffIndex(args.epsilon, window, store)
    if args.checkpoint_every > 0 or args.resume:
        # checkpointed/resumed builds stream observation-by-observation:
        # durability bookkeeping is per-observation, not per-batch
        if args.checkpoint_every > 0:
            # iter_series_csv keeps memory bounded: at most one chunk of
            # the input file is materialized at a time
            i = 0
            for ts, vs in iter_series_csv(args.input):
                for t, v in zip(ts, vs):
                    index.append(float(t), float(v))
                    i += 1
                    if i % args.checkpoint_every == 0:
                        index.checkpoint()
        else:
            series = load_series_csv(args.input)
            if args.max_gap is not None:
                index.ingest_episodes(series, args.max_gap)
            else:
                index.ingest(series)
    else:
        series = load_series_csv(args.input)
        if args.batch_size == 0:
            # scalar reference path
            if args.max_gap is not None:
                index.ingest_episodes(series, args.max_gap)
            else:
                index.ingest(series)
        else:
            index.ingest_episodes_fast(
                series,
                max_gap=args.max_gap,
                batch_size=args.batch_size or DEFAULT_BATCH_SIZE,
            )
    index.finalize()
    stats = index.stats()
    print(
        f"built {args.index}: {stats.n_segments} segments over "
        f"{stats.n_observations} observations (r = "
        f"{stats.compression_rate:.2f}), {stats.store_counts.total} feature "
        f"rows, {stats.disk_bytes / 1024:.0f} KiB on disk"
    )
    index.close()
    if args.metrics_out:
        from .obs import write_jsonl

        n = write_jsonl(args.metrics_out)
        print(f"wrote {n} metric series to {args.metrics_out}")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    """Stream a CSV into a live, time-partitioned index directory."""
    window = args.window_hours * HOUR
    live = LiveIndex.open_or_create(
        args.epsilon,
        window,
        args.directory,
        backend=args.backend,
        seal_rows=args.seal_rows,
        seal_bytes=args.seal_bytes,
        seal_age=args.seal_age,
        ttl=args.ttl,
        auto_compact=args.auto_compact,
        wal=args.wal,
    )
    replayed = live.stats()["wal"]
    if replayed is not None and replayed["replayed_observations"]:
        print(
            f"replayed {replayed['replayed_observations']} observations "
            f"from {replayed['path']} (no source replay needed)"
        )
    n_before = live.n_observations
    try:
        for ts, vs in iter_series_csv(args.input, chunk_size=args.chunk_size):
            live.append_array(ts, vs)
        if args.finalize:
            live.finalize()
        else:
            # make everything segmented so far durable; the open
            # segmenter tail is replayed on the next ingest run
            live.seal()
        stats = live.stats()
        n_new = live.n_observations - n_before
        print(
            f"ingested {n_new} new observations into {args.directory} "
            f"(skipped replays up to watermark): "
            f"{stats['n_partitions']} sealed partitions, "
            f"{stats['sealed_rows']} feature rows, "
            f"generation {stats['generation']}"
            + (", finalized" if stats["finalized"] else "")
        )
    finally:
        live.close()
    if args.metrics_out:
        from .obs import write_jsonl

        n = write_jsonl(args.metrics_out)
        print(f"wrote {n} metric series to {args.metrics_out}")
    return 0


def cmd_compact(args: argparse.Namespace) -> int:
    """Merge small sealed partitions; optionally run TTL retention."""
    live = LiveIndex.open(args.directory)
    try:
        merges = live.compact(max_rows=args.max_rows, min_run=args.min_run)
        dropped: List[str] = []
        if args.ttl is not None:
            dropped = live.expire(ttl=args.ttl)
        stats = live.stats()
        msg = (
            f"{args.directory}: {merges} compaction merge(s), "
            f"{stats['n_partitions']} partitions remain "
            f"({stats['sealed_rows']} feature rows, "
            f"generation {stats['generation']})"
        )
        if args.ttl is not None:
            msg += f"; {len(dropped)} partition(s) expired"
        print(msg)
    finally:
        live.close()
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    chosen = sum(
        x is not None for x in (args.drop, args.jump, args.deepest)
    )
    if chosen != 1:
        print(
            "error: exactly one of --drop, --jump or --deepest is required",
            file=sys.stderr,
        )
        return 2
    t_threshold = args.within_minutes * 60.0
    if args.trace:
        from .obs import RECORDER, set_tracing_enabled

        set_tracing_enabled(True)
        since = max((e.seq for e in RECORDER.tail(1)), default=0)
    index = SegDiffIndex.open(args.index)
    if args.deepest is not None:
        rc = _search_deepest(args, index, t_threshold)
        if args.trace:
            _print_traces(since)
        return rc
    try:
        if getattr(args, "explain", False):
            kind = "drop" if args.drop is not None else "jump"
            threshold = args.drop if args.drop is not None else args.jump
            report = index.explain_report(
                kind, t_threshold, threshold, mode=args.mode
            )
            print(report.render())
        # refinement runs inside the engine so the deadline covers it
        series = load_series_csv(args.data) if args.data else None
        search_kw = dict(mode=args.mode, data=series,
                         verified_only=args.verified,
                         timeout_ms=args.timeout_ms)
        if args.drop is not None:
            outcome = index.search_outcome(
                "drop", t_threshold, args.drop, **search_kw
            )
        else:
            outcome = index.search_outcome(
                "jump", t_threshold, args.jump, **search_kw
            )
        pairs = outcome.pairs
        print(
            f"{len(pairs)} matching periods (epsilon={index.epsilon}, "
            f"w={index.window / HOUR:.0f}h)"
        )
        if args.data and outcome.hits is not None:
            hits = outcome.hits
            if args.summary:
                from .core.reporting import render_summary, summarize_hits

                print(render_summary(summarize_hits(hits)))
                return 0
            for hit in hits[: args.limit]:
                w = hit.witness
                detail = (
                    f"deepest {w.dv:+.2f} over {w.dt / 60:.0f} min"
                    if w
                    else "no witness in data"
                )
                print(
                    f"  start in [{hit.pair.t_d:.0f}, {hit.pair.t_c:.0f}] "
                    f"end in [{hit.pair.t_b:.0f}, {hit.pair.t_a:.0f}]  ({detail})"
                )
        else:
            for pair in pairs[: args.limit]:
                print(
                    f"  start in [{pair.t_d:.0f}, {pair.t_c:.0f}] "
                    f"end in [{pair.t_b:.0f}, {pair.t_a:.0f}]"
                )
        if len(pairs) > args.limit:
            print(f"  ... and {len(pairs) - args.limit} more (use --limit)")
    finally:
        index.close()
    if args.trace:
        _print_traces(since)
    return 0


def _print_traces(since: int) -> None:
    """Render the ``trace`` events recorded after sequence number
    ``since``."""
    from .obs import RECORDER, render_span_tree

    roots = [
        e.attrs for e in RECORDER.tail()
        if e.category == "trace" and e.seq > since
    ]
    if not roots:
        print("no traces recorded", file=sys.stderr)
        return
    print()
    print("trace:")
    for root in roots:
        print(render_span_tree(root))


def _search_deepest(args: argparse.Namespace, index, t_threshold: float) -> int:
    try:
        data = load_series_csv(args.data) if args.data else None
        hits = index.search_deepest_drops(
            args.deepest, t_threshold, data=data, mode=args.mode,
            timeout_ms=args.timeout_ms,
        )
        print(
            f"{len(hits)} deepest drops within "
            f"{args.within_minutes:.0f} minutes"
        )
        for hit in hits:
            w = hit.witness
            print(
                f"  {w.dv:+.2f} over {w.dt / 60:.0f} min  "
                f"(start in [{hit.pair.t_d:.0f}, {hit.pair.t_c:.0f}], "
                f"end in [{hit.pair.t_b:.0f}, {hit.pair.t_a:.0f}])"
            )
    finally:
        index.close()
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """EXPLAIN ANALYZE: run the search, report the plan and row counts."""
    if (args.drop is None) == (args.jump is None):
        print(
            "error: exactly one of --drop or --jump is required",
            file=sys.stderr,
        )
        return 2
    kind = "drop" if args.drop is not None else "jump"
    threshold = args.drop if args.drop is not None else args.jump
    index = SegDiffIndex.open(args.index)
    try:
        report = index.explain_report(
            kind,
            args.within_minutes * 60.0,
            threshold,
            mode=args.mode,
            cache=args.cache,
        )
        print(report.render())
    finally:
        index.close()
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    if args.index is None and not args.metrics:
        print(
            "error: give an index path and/or --metrics", file=sys.stderr
        )
        return 2
    if args.index is not None and PartitionManifest.exists(args.index):
        live = LiveIndex.open(args.index)
        try:
            s = live.stats()
            wm = s["watermark"]
            print(f"live index:  {args.index}")
            print(f"epsilon:     {s['epsilon']}")
            print(f"window:      {s['window'] / HOUR:.1f} hours")
            print(f"generation:  {s['generation']}"
                  + ("  (finalized)" if s["finalized"] else ""))
            print(f"watermark:   "
                  + (f"{wm:.3f}" if wm is not None else "(none)"))
            print(f"n:           {s['n_observations']} observations, "
                  f"{s['sealed_segments']} sealed segments")
            print(f"partitions:  {s['n_partitions']} sealed "
                  f"({s['sealed_rows']} feature rows), hot: "
                  f"{s['hot']['rows']} rows / "
                  f"{s['hot']['n_segments']} segments")
            for p in s["partitions"]:
                print(f"  {p['partition_id']}: "
                      f"t=[{p['t_min']:.3f}, {p['t_max']:.3f})  "
                      f"{p['rows']} rows, {p['n_segments']} segments")
        finally:
            live.close()
    elif args.index is not None:
        index = SegDiffIndex.open(args.index)
        try:
            stats = index.stats()
            counts = stats.store_counts
            print(f"index:    {args.index}")
            print(f"epsilon:  {index.epsilon}")
            print(f"window:   {index.window / HOUR:.1f} hours")
            print(f"n:        {stats.n_observations} observations, "
                  f"{stats.n_segments} segments "
                  f"(r = {stats.compression_rate:.2f})")
            print(f"rows:     {counts.total} "
                  f"(drop pts {counts.drop_points}, "
                  f"drop lines {counts.drop_lines}, "
                  f"jump pts {counts.jump_points}, "
                  f"jump lines {counts.jump_lines})")
            print(f"features: {stats.feature_bytes / 1024:.0f} KiB")
            print(f"indexes:  {stats.index_bytes / 1024:.0f} KiB")
        finally:
            index.close()
    if args.metrics:
        from .obs import render_table, to_jsonl, to_prometheus

        if args.index is not None:
            print()
        if args.metrics_format == "jsonl":
            print(to_jsonl())
        elif args.metrics_format == "prometheus":
            print(to_prometheus())
        else:
            print(render_table())
    return 0


def cmd_debug(args: argparse.Namespace) -> int:
    """End-to-end query diagnostics: run one probe search with per-query
    tracing forced on, then print the linked trace tree, the resource
    accounting rollup, and the flight recorder's recent tail.

    ``--dump FILE`` additionally writes the whole recorder ring as JSONL,
    validated against ``benchmarks/recorder.schema.json`` (via its
    in-code twin) before anything touches disk.
    """
    from . import obs
    from .core.queries import DropQuery, JumpQuery
    from .obs.recorder import EVENT_SCHEMA

    if (args.drop is None) == (args.jump is None):
        print(
            "error: exactly one of --drop or --jump is required",
            file=sys.stderr,
        )
        return 2
    kind = "drop" if args.drop is not None else "jump"
    threshold = args.drop if args.drop is not None else args.jump
    t_threshold = args.within_minutes * 60.0

    # own the context here so the sessions underneath adopt it and leave
    # the collected trace roots to us: the probe always keeps its trace
    ctx = obs.new_context(api="debug")
    if PartitionManifest.exists(args.index):
        query = (
            DropQuery(t_threshold, threshold) if kind == "drop"
            else JumpQuery(t_threshold, threshold)
        )
        live = LiveIndex.open(args.index)
        try:
            with live.snapshot() as snap, obs.use_context(ctx):
                outcome = snap.execute(query, mode=args.mode)
        finally:
            live.close()
    else:
        index = SegDiffIndex.open(args.index)
        try:
            with obs.use_context(ctx):
                outcome = index.search_outcome(
                    kind, t_threshold, threshold, mode=args.mode
                )
        finally:
            index.close()
    status, n_pairs = outcome.status.value, outcome.rows.shape[0]
    traces = [root.to_dict() for root in ctx.trace_roots]
    with obs.use_context(ctx):
        for trace in traces:
            obs.record("trace", trace["name"], **trace)

    print(
        f"query {ctx.query_id}: kind={kind} T={t_threshold:g}s "
        f"V={threshold:g}  ->  {n_pairs} pairs, status={status}"
    )
    print()
    print("trace:")
    if traces:
        for root in traces:
            print(obs.render_span_tree(root))
    else:
        print("  (no spans recorded)")
    print()
    print(ctx.accounting.render())
    events = obs.RECORDER.tail(args.events)
    print()
    print(f"flight recorder ({len(events)} recent event(s)):")
    for ev in events:
        print(f"  {ev.render()}")

    if args.dump is not None:
        text = obs.RECORDER.to_jsonl()
        obs.validate_jsonl(text.splitlines(), EVENT_SCHEMA)
        with open(args.dump, "w", encoding="utf-8") as fh:
            if text:
                fh.write(text)
                fh.write("\n")
        n_lines = 0 if not text else text.count("\n") + 1
        print()
        print(f"wrote {n_lines} validated event(s) to {args.dump}")
    return 0


def _fsck_live_dir(directory: str) -> int:
    """Integrity-check a live partition directory: manifest, sealed
    partitions (against their persisted checksum trees), and WAL."""
    import os

    from .core.live import partition_damage, stale_file
    from .storage.livewal import LiveWAL, WAL_NAME
    from .storage.partitions import PartitionManifest

    try:
        manifest = PartitionManifest.load(directory)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    problems: List[str] = []
    for spec in manifest.partitions:
        why = partition_damage(directory, spec)
        if why is not None:
            problems.append(f"{spec.partition_id}: {why}")
    referenced = set(manifest.listed_files())
    notes = [
        f"{fname}: unreferenced (swept on next open)"
        for fname in sorted(os.listdir(directory))
        if stale_file(fname, referenced)
    ]

    wal_path = os.path.join(directory, WAL_NAME)
    if os.path.exists(wal_path):
        try:
            scan = LiveWAL.scan(wal_path)
        except ReproError as exc:
            problems.append(f"{WAL_NAME}: {exc}")
        else:
            msg = (
                f"{WAL_NAME}: {scan['frames']} frame(s), "
                f"{scan['observations']} observation(s), "
                f"{scan['gaps']} gap(s)"
            )
            if scan["torn_bytes"]:
                msg += (
                    f", {scan['torn_bytes']} torn tail byte(s) "
                    "(truncated on next open)"
                )
            notes.append(msg)

    for n in notes:
        print(f"  note: {n}")
    if problems:
        print(f"{directory} (live): {len(problems)} problem(s)")
        for p in problems:
            print(f"  {p}")
        return 1
    print(
        f"{directory} (live): ok — {len(manifest.partitions)} "
        f"partition(s), generation {manifest.generation}"
    )
    return 0


def cmd_fsck(args: argparse.Namespace) -> int:
    """Integrity-check a database file or live partition directory."""
    import os

    if os.path.isdir(args.db):
        return _fsck_live_dir(args.db)
    try:
        with open(args.db, "rb") as fh:
            magic = fh.read(16)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if magic.startswith(b"SQLite format 3"):
        from .storage.sqlite_store import integrity_problems

        problems = integrity_problems(args.db)
        kind = "sqlite"
    else:
        from .storage.minidb import MiniDatabase

        kind = "minidb"
        try:
            with MiniDatabase(args.db) as db:
                problems = [str(p) for p in db.check()]
        except ReproError as exc:
            problems = [str(exc)]

    if problems:
        print(f"{args.db} ({kind}): {len(problems)} problem(s)")
        for p in problems:
            print(f"  {p}")
        return 1
    print(f"{args.db} ({kind}): ok")
    return 0


def cmd_shard_build(args: argparse.Namespace) -> int:
    """Build a replicated, time-sharded index directory from CSV."""
    import os

    from .engine.sharding import ShardedIndex

    series = load_series_csv(args.input)
    os.makedirs(args.directory, exist_ok=True)
    sharded = ShardedIndex.build(
        series,
        epsilon=args.epsilon,
        window=args.window_hours * HOUR,
        n_shards=args.shards,
        max_gap=args.max_gap,
        replicas=args.replicas,
        backend="sqlite",
        directory=args.directory,
        leaf_size=args.leaf_size,
    )
    try:
        sharded.save_manifest(args.directory)
        stats = sharded.stats()
        total_rows = sum(s["rows"] for s in stats["shards"])
        print(
            f"built {args.directory}: {stats['n_shards']} shard(s) x "
            f"{args.replicas} replica(s), {total_rows} feature rows per "
            f"replica set, checksums sealed"
        )
        for shard in sharded.shards:
            spec = shard.spec
            print(
                f"  {spec.shard_id}: t in [{spec.t_min:.0f}, "
                f"{spec.t_max:.0f}], {len(shard.replicas)} replica(s)"
            )
    finally:
        sharded.close()
    return 0


def _open_for_verify(path: str):
    """A sharded directory (manifest.json) or a single sealed index."""
    import os

    from .engine.sharding import Shard, ShardSpec, ShardedIndex

    if os.path.isdir(path):
        return ShardedIndex.open(path)
    index = SegDiffIndex.open(path)
    if index.checksums() is None:
        index.close()
        raise ReproError(
            f"{path} has no sealed checksum trees; build it with "
            "shard-build, or call SegDiffIndex.seal_checksums() first"
        )
    spec = ShardSpec(shard_id=os.path.basename(path), t_min=0.0, t_max=0.0)
    return ShardedIndex([Shard(spec, [index])], index.epsilon, index.window)


def cmd_verify(args: argparse.Namespace) -> int:
    """Checksum anti-entropy check over a sharded index (or one index)."""
    sharded = _open_for_verify(args.path)
    try:
        report = sharded.verify(shard_id=args.shard)
        print(report.describe())
    finally:
        sharded.close()
    return 0 if report.clean else 1


def cmd_repair(args: argparse.Namespace) -> int:
    """Re-copy divergent ranges from a healthy peer, then re-verify."""
    sharded = _open_for_verify(args.path)
    try:
        before = sharded.verify(shard_id=args.shard)
        if before.clean:
            print("already clean; nothing to repair")
            return 0
        print(f"before: {before.describe()}")
        after = sharded.repair(before)
        print(f"after:  {after.describe()}")
    finally:
        sharded.close()
    return 0 if after.clean else 1


def cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments.__main__ import main as experiments_main

    return experiments_main(["--quick"] if args.quick else [])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segdiff",
        description="SegDiff: searching for drops (and jumps) in sensor data",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--verbose", action="store_true",
        help="emit the library's structured log records (WAL replays, "
             "slow queries, ...) to stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write synthetic CAD data to CSV")
    p.add_argument("--days", type=int, default=7)
    p.add_argument("--seed", type=int, default=20080325)
    p.add_argument("--sensors", type=int, default=25)
    p.add_argument("--sensor", type=int, default=12)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("smooth", help="robust-smooth a CSV series")
    p.add_argument("input")
    p.add_argument("--span", type=int, default=9)
    p.add_argument("--iterations", type=int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("build", help="build a persistent SegDiff index")
    p.add_argument("input")
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--window-hours", type=float, default=8.0)
    p.add_argument("--index", required=True)
    p.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                   help="checkpoint the index every N observations so an "
                        "interrupted build can be resumed")
    p.add_argument("--resume", action="store_true",
                   help="continue a checkpointed build; already-ingested "
                        "observations in the input are skipped")
    p.add_argument("--batch-size", type=int, default=None, metavar="B",
                   help="observations per vectorized ingest round "
                        f"(default {DEFAULT_BATCH_SIZE}; 0 forces the "
                        "scalar reference path)")
    p.add_argument("--max-gap", type=float, default=None, metavar="SECONDS",
                   help="treat sampling gaps larger than this as episode "
                        "boundaries (no pairs across them)")
    p.add_argument("--metrics-out", metavar="FILE",
                   help="dump the metrics registry as JSON lines after "
                        "the build")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser(
        "ingest",
        help="stream CSV into a live, time-partitioned index directory",
    )
    p.add_argument("input")
    p.add_argument("--directory", required=True,
                   help="partition directory (created on first run; later "
                        "runs resume at the watermark and skip replayed "
                        "observations)")
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--window-hours", type=float, default=8.0)
    p.add_argument("--backend", choices=["sqlite", "minidb"],
                   default="sqlite",
                   help="sealed-partition store format")
    p.add_argument("--seal-rows", type=int, default=50_000, metavar="N",
                   help="seal the hot partition once it holds N feature "
                        "rows")
    p.add_argument("--seal-bytes", type=int, default=None, metavar="BYTES",
                   help="also seal once the hot partition's estimated "
                        "in-memory footprint reaches this many bytes")
    p.add_argument("--seal-age", type=float, default=None, metavar="SECONDS",
                   help="also seal once the hot partition spans this much "
                        "time")
    p.add_argument("--wal", default=True,
                   action=argparse.BooleanOptionalAction,
                   help="write-ahead log the hot partition (hot.wal) so a "
                        "crashed ingest resumes without re-reading the "
                        "source (--no-wal restores replay-from-watermark)")
    p.add_argument("--ttl", type=float, default=None, metavar="SECONDS",
                   help="retention: drop partitions ending more than TTL "
                        "seconds before the watermark")
    p.add_argument("--auto-compact", action="store_true",
                   help="merge small adjacent partitions after every seal")
    p.add_argument("--finalize", action="store_true",
                   help="seal the stream after ingesting (no further "
                        "appends; the segmenter tail is flushed)")
    p.add_argument("--chunk-size", type=int, default=65_536, metavar="N",
                   help="CSV rows per streamed chunk")
    p.add_argument("--metrics-out", metavar="FILE",
                   help="dump the metrics registry as JSON lines after "
                        "the run")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser(
        "compact",
        help="merge small sealed partitions of a live index directory",
    )
    p.add_argument("directory")
    p.add_argument("--max-rows", type=int, default=None, metavar="N",
                   help="partitions at most this large are merge "
                        "candidates (default: the directory's seal "
                        "threshold)")
    p.add_argument("--min-run", type=int, default=2, metavar="K",
                   help="merge only runs of at least K adjacent small "
                        "partitions")
    p.add_argument("--ttl", type=float, default=None, metavar="SECONDS",
                   help="also drop partitions ending more than TTL "
                        "seconds before the watermark")
    p.set_defaults(func=cmd_compact)

    p = sub.add_parser("search", help="search a built index")
    p.add_argument("index")
    p.add_argument("--drop", type=float, help="drop threshold V < 0")
    p.add_argument("--jump", type=float, help="jump threshold V > 0")
    p.add_argument("--deepest", type=int, metavar="K",
                   help="report the K deepest drops (no threshold needed)")
    p.add_argument("--within-minutes", type=float, default=60.0)
    p.add_argument("--mode", choices=["index", "scan", "auto"],
                   default="index")
    p.add_argument("--data", help="original CSV for witness refinement")
    p.add_argument("--verified", action="store_true",
                   help="drop tolerance false positives (needs --data)")
    p.add_argument("--summary", action="store_true",
                   help="print an exploration summary instead of the hit "
                        "list (needs --data)")
    p.add_argument("--limit", type=int, default=20)
    p.add_argument("--explain", action="store_true",
                   help="print the engine's chosen plan with estimated vs "
                        "actual row counts before the results")
    p.add_argument("--trace", action="store_true",
                   help="record spans while searching and print the span "
                        "tree after the results")
    p.add_argument("--timeout-ms", type=float, metavar="MS",
                   help="per-query deadline, for --deepest each "
                        "threshold search it issues; the search is "
                        "cancelled cooperatively and fails with a "
                        "timeout once exceeded")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser(
        "explain",
        help="show the plan a search executes, with est vs actual rows",
    )
    p.add_argument("index")
    p.add_argument("--drop", type=float, help="drop threshold V < 0")
    p.add_argument("--jump", type=float, help="jump threshold V > 0")
    p.add_argument("--within-minutes", type=float, default=60.0)
    p.add_argument("--mode", choices=["auto", "index", "scan"],
                   default="auto")
    p.add_argument("--cache", choices=["warm", "cold"], default="warm")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser(
        "stats",
        help="report a built index's composition and/or process metrics",
    )
    p.add_argument("index", nargs="?", default=None)
    p.add_argument("--metrics", action="store_true",
                   help="dump the process-local metrics registry")
    p.add_argument("--metrics-format",
                   choices=["table", "jsonl", "prometheus"],
                   default="table")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "debug",
        help="query diagnostics: trace tree, resource accounting, and "
             "the flight-recorder tail for one probe search",
    )
    p.add_argument("index", help="a built index file or live directory")
    p.add_argument("--drop", type=float, help="drop threshold V < 0")
    p.add_argument("--jump", type=float, help="jump threshold V > 0")
    p.add_argument("--within-minutes", type=float, default=60.0)
    p.add_argument("--mode", choices=["auto", "index", "scan"],
                   default="index")
    p.add_argument("--events", type=int, default=20, metavar="N",
                   help="flight-recorder events to print (default 20)")
    p.add_argument("--dump", metavar="FILE",
                   help="write the whole recorder ring to FILE as "
                        "schema-validated JSONL")
    p.set_defaults(func=cmd_debug)

    p = sub.add_parser(
        "fsck",
        help="check a database file or live partition directory for "
             "corruption",
    )
    p.add_argument("db", help="a MiniDB (.mdb) or SQLite file, or a "
                              "live index directory (manifest, sealed "
                              "partitions, hot.wal)")
    p.set_defaults(func=cmd_fsck)

    p = sub.add_parser(
        "shard-build",
        help="build a replicated, time-sharded index directory",
    )
    p.add_argument("input")
    p.add_argument("--directory", required=True,
                   help="output directory (per-replica SQLite files plus "
                        "manifest.json)")
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--window-hours", type=float, default=8.0)
    p.add_argument("--shards", type=int, default=4, metavar="N",
                   help="target shard count; the series is split at "
                        "sampling-gap boundaries into at most N shards")
    p.add_argument("--replicas", type=int, default=1, metavar="R",
                   help="replicas per shard (failover + repair peers)")
    p.add_argument("--max-gap", type=float, required=True, metavar="SECONDS",
                   help="sampling gaps larger than this are episode "
                        "boundaries; shards split only there, so the "
                        "sharded answer equals a single index's")
    p.add_argument("--leaf-size", type=int, default=None, metavar="ROWS",
                   help="checksum-tree leaf size (rows per leaf)")
    p.set_defaults(func=cmd_shard_build)

    p = sub.add_parser(
        "verify",
        help="checksum anti-entropy check of a sharded index directory "
             "(or one sealed index file)",
    )
    p.add_argument("path")
    p.add_argument("--shard", default=None, help="check one shard only")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "repair",
        help="re-copy divergent row ranges from a healthy replica, "
             "then re-verify",
    )
    p.add_argument("path")
    p.add_argument("--shard", default=None, help="repair one shard only")
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("experiments", help="run the paper's evaluation")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=cmd_experiments)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        logging.basicConfig(
            level=logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
            stream=sys.stderr,
        )
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

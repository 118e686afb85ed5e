"""Bench for the observability layer's overhead (docs/observability.md).

Times the same build + query workload under three configurations:

* ``off``             — metrics disabled (``set_enabled(False)``);
* ``metrics``         — the always-on default (which since the query-
  diagnostics work includes per-query resource accounting);
* ``metrics_tracing`` — metrics plus span tracing enabled.

and across two query paths:

* ``vectorized`` — a plain index on the block read primitives;
* ``sharded``    — a 4-shard transect behind scatter-gather (context
  hand-off through the thread pool plus per-shard accounting).

The acceptance bar is that ``metrics`` stays within 3% of ``off`` on
every path — cheap enough to leave on in production.  Tracing allocates
per span, so it is allowed to cost more (it is opt-in).

Run directly to write ``BENCH_obs.json``::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py [--smoke]

or under pytest, where the smoke-sized run asserts the report schema
plus the exporter and flight-recorder dump schemas (timing ratios are
not asserted: CI machines vary).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List

from repro.core.index import SegDiffIndex
from repro.core.queries import DropQuery, JumpQuery
from repro.datagen import CADConfig, CADTransectGenerator, TimeSeries
from repro.engine.session import QuerySession
from repro.engine.sharding import ShardedIndex
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing

HOUR = 3600.0

EPSILON = 0.5
WINDOW = HOUR
N_QUERIES = 120
N_SHARDS = 4

PATHS = ("vectorized", "sharded")

REPORT_SCHEMA = ("benchmark", "series", "repeats", "paths",
                 "configs", "overhead_pct")
CONFIG_SCHEMA = ("name", "build_seconds", "query_seconds", "total_seconds")


def make_series(days: int) -> TimeSeries:
    cfg = CADConfig(days=days, n_sensors=1)
    return CADTransectGenerator(cfg).generate(0)


def make_transect(days: int) -> Dict[str, TimeSeries]:
    """One shorter series per shard — the scatter-gather workload."""
    cfg = CADConfig(days=days, n_sensors=N_SHARDS)
    gen = CADTransectGenerator(cfg)
    return {f"s{i}": gen.generate(i) for i in range(N_SHARDS)}


def _queries() -> List:
    """A mixed drop/jump grid exercising both engine operators."""
    out: List = []
    for i in range(N_QUERIES // 2):
        t = 600.0 + (i % 6) * 500.0
        out.append(DropQuery(t, -0.5 - (i % 4)))
        out.append(JumpQuery(t, 0.5 + (i % 4)))
    return out


def run_workload(path: str, series: TimeSeries,
                 transect: Dict[str, TimeSeries]) -> Dict[str, float]:
    """One build + query pass on ``path``; returns wall seconds."""
    if path == "sharded":
        t0 = time.perf_counter()
        sharded = ShardedIndex.build_transect(transect, EPSILON, WINDOW)
        build_s = time.perf_counter() - t0
        try:
            t0 = time.perf_counter()
            for q in _queries():
                kind = "drop" if q.v_threshold < 0 else "jump"
                sharded.search_outcome(
                    kind, q.t_threshold, q.v_threshold, mode="index"
                )
            query_s = time.perf_counter() - t0
        finally:
            sharded.close()
        return {"build": build_s, "query": query_s}

    t0 = time.perf_counter()
    index = SegDiffIndex.build(series, EPSILON, WINDOW)
    build_s = time.perf_counter() - t0
    try:
        session = QuerySession(index.store)
        t0 = time.perf_counter()
        for q in _queries():
            session.search(q, mode="index")
        query_s = time.perf_counter() - t0
    finally:
        index.close()
    return {"build": build_s, "query": query_s}


def run_config(path: str, series: TimeSeries,
               transect: Dict[str, TimeSeries], metrics_on: bool,
               tracing_on: bool) -> Dict[str, float]:
    """One build+query pass under one on/off configuration."""
    prev_metrics = obs_metrics.enabled()
    prev_tracing = obs_tracing.enabled()
    obs_metrics.set_enabled(metrics_on)
    obs_tracing.set_enabled(tracing_on)
    try:
        return run_workload(path, series, transect)
    finally:
        obs_metrics.set_enabled(prev_metrics)
        obs_tracing.set_enabled(prev_tracing)


CONFIGS = (
    ("off", False, False),
    ("metrics", True, False),
    ("metrics_tracing", True, True),
)


def run_path(path: str, series: TimeSeries,
             transect: Dict[str, TimeSeries], repeats: int) -> Dict:
    """Best-of-``repeats`` per config, configs interleaved round-robin.

    Interleaving matters: each pass takes seconds, and slow machine
    drift (CPU frequency, container throttling) over back-to-back
    blocks would otherwise alias into the few-percent config deltas
    this bench exists to measure.  Round-robin spreads the drift
    across all three configs equally.
    """
    times: Dict[str, Dict[str, float]] = {
        name: {"build": float("inf"), "query": float("inf")}
        for name, _, _ in CONFIGS
    }
    for _ in range(repeats):
        for name, m_on, t_on in CONFIGS:
            got = run_config(path, series, transect, m_on, t_on)
            times[name] = {
                k: min(times[name][k], got[k]) for k in times[name]
            }
    configs: List[Dict] = []
    for name, _, _ in CONFIGS:
        best = times[name]
        configs.append({
            "name": name,
            "build_seconds": round(best["build"], 4),
            "query_seconds": round(best["query"], 4),
            "total_seconds": round(best["build"] + best["query"], 4),
        })
    base = times["off"]["build"] + times["off"]["query"]
    overhead = {
        name: round(
            100.0 * ((t["build"] + t["query"]) - base) / base, 2
        )
        for name, t in times.items()
        if name != "off"
    }
    return {"configs": configs, "overhead_pct": overhead}


def run_bench(days: int = 350, repeats: int = 5) -> Dict:
    series = make_series(days)
    transect = make_transect(max(2, days // N_SHARDS))
    paths = {
        path: run_path(path, series, transect, repeats)
        for path in PATHS
    }
    return {
        "benchmark": "obs_overhead",
        "series": {
            "days": days,
            "points": len(series),
            "queries": N_QUERIES,
            "epsilon": EPSILON,
            "window_seconds": WINDOW,
            "shards": N_SHARDS,
        },
        "repeats": repeats,
        "paths": paths,
        # top level mirrors the default (vectorized) path, the shape
        # earlier BENCH_obs.json consumers read
        "configs": paths["vectorized"]["configs"],
        "overhead_pct": paths["vectorized"]["overhead_pct"],
    }


def validate_report(report: Dict) -> None:
    for key in REPORT_SCHEMA:
        assert key in report, f"report missing {key!r}"
    assert set(report["paths"]) == set(PATHS)
    for path_report in report["paths"].values():
        assert len(path_report["configs"]) == 3
        for entry in path_report["configs"]:
            for key in CONFIG_SCHEMA:
                assert key in entry, f"config entry missing {key!r}"
            assert entry["total_seconds"] > 0
        assert set(path_report["overhead_pct"]) == {
            "metrics", "metrics_tracing"
        }


def validate_obs_schemas() -> None:
    """Re-validate the exporter and recorder dumps against the
    checked-in schemas (the obs-smoke CI step)."""
    from repro import obs
    from repro.obs.export import validate_jsonl

    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "metrics.schema.json")) as fh:
        metrics_schema = json.load(fh)
    n = validate_jsonl(obs.to_jsonl().splitlines(), metrics_schema)
    assert n > 0, "metrics export is empty"

    with open(os.path.join(here, "recorder.schema.json")) as fh:
        recorder_schema = json.load(fh)
    # the file schema and the in-code twin must admit the same events
    assert (recorder_schema["properties"]["category"]["enum"]
            == list(obs.RECORDER_CATEGORIES))
    obs.record("seal", "bench-probe", rows=1)
    n = validate_jsonl(
        obs.RECORDER.to_jsonl().splitlines(), recorder_schema
    )
    assert n > 0, "recorder dump is empty"


# ---------------------------------------------------------------------- #
# pytest entry point (CI smoke; ratios not asserted)
# ---------------------------------------------------------------------- #


def test_smoke_schema():
    report = run_bench(days=8, repeats=1)
    validate_report(report)
    validate_obs_schemas()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny series, one repeat; timings are not meaningful",
    )
    parser.add_argument("--days", type=int, default=350)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--out", default=os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "BENCH_obs.json",
        ),
    )
    args = parser.parse_args(argv)
    days = 8 if args.smoke else args.days
    repeats = 1 if args.smoke else args.repeats
    report = run_bench(days=days, repeats=repeats)
    validate_report(report)
    validate_obs_schemas()
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))
    if not args.smoke:
        for path, path_report in report["paths"].items():
            pct = path_report["overhead_pct"]["metrics"]
            if pct >= 3.0:
                print(
                    f"WARNING: metrics-on overhead on the {path} path "
                    f"({pct}%) exceeds the 3% budget",
                    file=sys.stderr,
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())

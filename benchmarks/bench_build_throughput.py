"""Bench for the fast-path index build (docs/performance.md).

Measures end-to-end build throughput — points/sec and feature rows/sec —
for the ingest paths on synthetic CAD data:

* ``scalar``  — the streaming reference path (``batch_size=0``);
* ``batched`` — vectorized segmentation + extraction + bulk store writes;
* ``episodes_batched`` — the batched path over a gapped input, with an
  episode break at every outage.

Every configuration is checked for equivalence (same segments, same
feature-row counts; in smoke mode full row-for-row equality) before its
timing is reported, so a fast-but-wrong path can never post a number.

Run directly to write ``BENCH_build.json``::

    PYTHONPATH=src python benchmarks/bench_build_throughput.py [--smoke]

or under pytest, where the smoke-sized run asserts correctness and the
JSON schema (CI's benchmark smoke job).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List

import numpy as np

from repro.core.index import SegDiffIndex
from repro.datagen import CADConfig, CADTransectGenerator, TimeSeries

HOUR = 3600.0
DAY = 86400.0

EPSILON = 0.5
WINDOW = HOUR
MAX_GAP = 2 * HOUR
N_EPISODES = 8

#: Keys every configuration entry in the JSON report must carry.
CONFIG_SCHEMA = (
    "name",
    "seconds",
    "points_per_sec",
    "features_per_sec",
    "speedup_vs_scalar",
)
REPORT_SCHEMA = (
    "benchmark",
    "cpu_count",
    "series",
    "configs",
    "equivalent",
)


def make_series(days: int) -> TimeSeries:
    """One gap-free CAD transect series of roughly ``288 * days`` points."""
    cfg = CADConfig(days=days, n_sensors=1)
    return CADTransectGenerator(cfg).generate(0)


def make_episode_series(days: int, episodes: int = N_EPISODES) -> TimeSeries:
    """``episodes`` independent CAD chunks chained with one-day outages."""
    ts_parts: List[np.ndarray] = []
    vs_parts: List[np.ndarray] = []
    offset = 0.0
    for k in range(episodes):
        cfg = CADConfig(days=days, n_sensors=1, seed=100 + k)
        chunk = CADTransectGenerator(cfg).generate(0)
        t = np.asarray(chunk.times, dtype=float) + offset
        ts_parts.append(t)
        vs_parts.append(np.asarray(chunk.values, dtype=float))
        offset = float(t[-1]) + DAY
    return TimeSeries(np.concatenate(ts_parts), np.concatenate(vs_parts))


def _rows(index) -> Dict[str, np.ndarray]:
    out = {}
    for kind in ("drop", "jump"):
        out[f"{kind}_points"] = np.asarray(
            index.store.scan_points_array(kind), dtype=float
        )
        out[f"{kind}_lines"] = np.asarray(
            index.store.scan_lines_array(kind), dtype=float
        )
    return out


def _build(series: TimeSeries, **kwargs):
    t0 = time.perf_counter()
    index = SegDiffIndex.build(series, EPSILON, WINDOW, **kwargs)
    seconds = time.perf_counter() - t0
    return index, seconds


def run_bench(days: int = 350, deep_check: bool = False) -> Dict:
    """Time the build paths; verify equivalence before reporting.

    ``days`` sizes the single-episode series (350 days = 100,800 points,
    the paper-scale run); the episode row uses an 8-episode input of
    comparable total size.  ``deep_check=True`` compares stored rows
    value-for-value (the smoke/CI regime) instead of by count.
    """
    series = make_series(days)
    ep_series = make_episode_series(max(1, days // N_EPISODES))

    configs: List[Dict] = []
    equivalent = True

    scalar, t_scalar = _build(series, batch_size=0)
    reference_segments = scalar.segments
    reference_counts = scalar.stats().store_counts
    reference_rows = _rows(scalar) if deep_check else None
    n_features = reference_counts.total
    scalar.close()

    batched, t_batched = _build(series)
    equivalent &= batched.segments == reference_segments
    equivalent &= batched.stats().store_counts == reference_counts
    if deep_check:
        got = _rows(batched)
        equivalent &= all(
            np.array_equal(reference_rows[t], got[t]) for t in got
        )
    batched.close()

    ep_batched, t_ep_batched = _build(ep_series, max_gap=MAX_GAP)
    ep_n_features = ep_batched.stats().store_counts.total
    ep_batched.close()

    n = len(series)
    ep_n = len(ep_series)
    for name, seconds, points, features, base in (
        ("scalar", t_scalar, n, n_features, t_scalar),
        ("batched", t_batched, n, n_features, t_scalar),
        ("episodes_batched", t_ep_batched, ep_n, ep_n_features,
         t_ep_batched),
    ):
        configs.append(
            {
                "name": name,
                "seconds": round(seconds, 4),
                "points_per_sec": round(points / seconds, 1),
                "features_per_sec": round(features / seconds, 1),
                "speedup_vs_scalar": round(base / seconds, 2),
            }
        )

    return {
        "benchmark": "build_throughput",
        "cpu_count": os.cpu_count(),
        "series": {
            "days": days,
            "points": n,
            "episode_points": ep_n,
            "episodes": N_EPISODES,
            "epsilon": EPSILON,
            "window_seconds": WINDOW,
        },
        "configs": configs,
        "equivalent": bool(equivalent),
    }


def validate_schema(report: Dict) -> None:
    """Raise AssertionError when the JSON report misses required keys."""
    for key in REPORT_SCHEMA:
        assert key in report, f"report missing {key!r}"
    assert report["configs"], "no configurations timed"
    for entry in report["configs"]:
        for key in CONFIG_SCHEMA:
            assert key in entry, f"config entry missing {key!r}"
        assert entry["seconds"] > 0


# ---------------------------------------------------------------------- #
# pytest entry points (CI benchmark smoke job)
# ---------------------------------------------------------------------- #


def test_smoke_equivalence_and_schema():
    """Tiny series: every path must agree row-for-row and the JSON
    report must carry the full schema.  Timing numbers are recorded but
    not asserted (CI machines vary)."""
    report = run_bench(days=16, deep_check=True)
    validate_schema(report)
    assert report["equivalent"], "fast paths diverged from scalar build"


def dump_metrics(path: str) -> int:
    """Write the process metrics registry as JSONL and validate every
    record against the checked-in schema; returns the series count."""
    from repro.obs import write_jsonl
    from repro.obs.export import validate_jsonl

    schema_path = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "metrics.schema.json"
    )
    with open(schema_path) as fh:
        schema = json.load(fh)
    n = write_jsonl(path)
    with open(path) as fh:
        validated = validate_jsonl(fh, schema)
    assert validated == n, f"wrote {n} series but validated {validated}"
    return n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny series; correctness + schema, timings not meaningful",
    )
    parser.add_argument(
        "--days", type=int, default=350,
        help="series length in days (350 days = 100,800 points)",
    )
    parser.add_argument(
        "--out", default=os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "BENCH_build.json",
        ),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="also dump the metrics registry as JSONL (validated "
             "against benchmarks/metrics.schema.json)",
    )
    args = parser.parse_args(argv)
    days = 16 if args.smoke else args.days
    report = run_bench(days=days, deep_check=args.smoke)
    validate_schema(report)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))
    if args.metrics_out:
        n = dump_metrics(args.metrics_out)
        print(f"wrote {n} validated metric series to {args.metrics_out}",
              file=sys.stderr)
    if not report["equivalent"]:
        print("ERROR: fast paths diverged from the scalar build",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

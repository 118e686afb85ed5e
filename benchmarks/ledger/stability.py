"""Stability study: does the ledger repeat?  Writes STABILITY.md.

    python3 benchmarks/ledger/stability.py [--sets 2] [--runs 10]

Makes ``--sets`` sets of ``--runs`` runs of every workload on the
current checkout, each run of a set with another seed, the workload
order reversed from one seed to the next (so no workload always runs
right after the same neighbour).  Per end-to-end metric it reports the
run-to-run min / median / max, the quartile distance as a share of the
median (``statistics.quantiles(values, n=4)``), and the gap between set
medians — the two checks the acceptance of the benchmark rests on.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
sys.path.insert(0, _ROOT)

from benchmarks.ledger.catalog import END_TO_END, RUN_SECONDS  # noqa: E402

WORKLOADS = ("hist_memory", "hist_sqlite", "live_minidb", "transect_sharded")
FIRST_SEED = 101


def run_once(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(_HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(RUN_SECONDS),
         "--trace", "0"],
        cwd=_ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def worsening(first: float, second: float, better: str) -> float:
    """How much worse the second median is, as a share of the first
    (negative: it is better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out", default=os.path.join(_HERE, "STABILITY.md"))
    args = p.parse_args(argv)

    # values[workload][metric][set] -> list over runs
    values = {w: {m[0]: [[] for _ in range(args.sets)] for m in END_TO_END}
              for w in WORKLOADS}
    walls = []
    started = time.time()
    for s in range(args.sets):
        for r in range(args.runs):
            seed = FIRST_SEED + s * args.runs + r
            order = WORKLOADS if r % 2 == 0 else WORKLOADS[::-1]
            for w in order:
                t0 = time.perf_counter()
                result = run_once(w, seed)
                walls.append(time.perf_counter() - t0)
                if not result["correct"] or result["failed"]:
                    raise SystemExit(f"{w} seed {seed}: {result}")
                for name, m in result["metrics"].items():
                    values[w][name][s].append(m["value"])
                print(f"set {s} run {r} {w} seed {seed} "
                      f"{walls[-1]:.1f}s", flush=True)

    lines = [
        "# Stability of the ledger's end-to-end metrics",
        "",
        f"{args.sets} sets of {args.runs} runs per workload on one commit, "
        f"`--seconds {RUN_SECONDS}`, every run of a set with another "
        f"`--seed` ({FIRST_SEED}…), workload order reversed from run to "
        "run.  Written by `stability.py`; "
        f"{len(walls)} runs, {time.time() - started:.0f} s in all, "
        f"{statistics.median(walls):.1f} s median and {max(walls):.1f} s "
        "longest per run (process start to exit).",
        "",
        "`spread` is the distance between the first and third quartile "
        "of a set's values as a share of their median; `gap` is how much "
        "worse the last set's median is than the first's (negative: "
        "better).  The benchmark is accepted when every spread (except "
        "`setup_s`'s) and every gap is within the bound; a metric is "
        "called steady when every spread is under a third of its bound "
        "and every gap, in either direction, under half of it.",
        "",
    ]
    worst = {m[0]: 0.0 for m in END_TO_END}
    worst_gap = {m[0]: 0.0 for m in END_TO_END}
    for w in WORKLOADS:
        lines += [f"## {w}", "",
                  "| metric | unit | bound | set | min | median | max | "
                  "spread | gap |", "|---|---|---|---|---|---|---|---|---|"]
        for name, unit, better, bound in END_TO_END:
            sets = values[w][name]
            meds = [statistics.median(v) for v in sets]
            gap = worsening(meds[0], meds[-1], better)
            if abs(gap) > abs(worst_gap[name]):
                worst_gap[name] = gap
            for s, v in enumerate(sets):
                sp = spread(v)
                if name != "setup_s":
                    worst[name] = max(worst[name], sp)
                lines.append(
                    f"| {name} | {unit} | {bound:.0%} | {s} | {min(v):.5g} "
                    f"| {meds[s]:.5g} | {max(v):.5g} | {sp:.1%} | "
                    + (f"{gap:+.1%} |" if s == len(sets) - 1 else "|"))
        lines.append("")
    lines += ["## Verdict", "",
              "| metric | bound | widest spread | largest gap | steady |",
              "|---|---|---|---|---|"]
    ok = True
    for name, _unit, _better, bound in END_TO_END:
        steady = (worst[name] < bound / 3
                  and abs(worst_gap[name]) < bound / 2)
        within = worst[name] < bound and worst_gap[name] < bound
        ok = ok and within
        lines.append(
            f"| {name} | {bound:.0%} | {worst[name]:.1%} | "
            f"{worst_gap[name]:+.1%} | "
            f"{'yes' if steady else 'within bound' if within else 'NO'} |")
    lines += ["", "## Every run", ""]
    for w in WORKLOADS:
        lines += [f"### {w}", "", "```"]
        for name, *_ in END_TO_END:
            for s, v in enumerate(values[w][name]):
                lines.append(f"{name} set {s}: "
                             + " ".join(f"{x:.6g}" for x in v))
        lines += ["```", ""]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

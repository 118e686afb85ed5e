"""The ledger's one runner.

    python3 benchmarks/ledger/run.py --workload NAME [--seed N]
        [--seconds S] [--trace 0|1] [--smoke]

(``python -m benchmarks.ledger`` is the same program.)  Prints every
metric by name with its unit, then — as the last line — one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exits 1 when any answer was wrong or any op failed, 2 when the program
under test is not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import gc
import os
import shutil
import sys
import tempfile
import time

_START = time.perf_counter()
_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))

DEFAULT_SEED = 20080325  # EDBT'08 opening day


def _parse(argv):
    from benchmarks.ledger.catalog import RUN_SECONDS

    p = argparse.ArgumentParser(prog="benchmarks.ledger",
                                description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                   help="how long the run measures")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1),
                   help="1: traced run, prints the per-layer metrics")
    p.add_argument("--smoke", action="store_true",
                   help="7 days, 10 ops, one round: schema and answers only")
    p.add_argument("--out", default=os.path.join(_HERE, "out"),
                   help="where scratch files and trace-<workload>.json go")
    return p.parse_args(argv)


def _print_metrics(title: str, metrics) -> None:
    print(f"{title}:")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {unit}")


def _result_line(rec, metrics) -> str:
    return json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(_ROOT, "src", "repro")):
        print(f"ledger: no program to measure under {_ROOT}/src",
              file=sys.stderr)
        return 2
    for path in (os.path.join(_ROOT, "src"), _ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)

    args = _parse(argv)
    from benchmarks.ledger import harness, tracing
    from benchmarks.ledger.workloads import DEFAULT, SMOKE, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"ledger: unknown workload {args.workload!r}; one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    scale = SMOKE if args.smoke else DEFAULT
    os.makedirs(args.out, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out)
    try:
        workload = WORKLOADS[args.workload](scale, args.seed, scratch)
        rec = harness.Recorder()

        # set-up, repeated: inputs from the seed, reference answers
        for _ in range(scale.setups):
            gc.collect()
            rec.time("setup", 0, workload.setup)
        rec.settle()
        if rec.failed:
            for err in rec.errors:
                print(f"FAILED {err}", file=sys.stderr)
            return 1
        setup_s = rec.median_of("setup")
        workload.audit(rec)

        # warm-up: one smoke-sized round, so imports, lazy set-up and
        # first-call paths are out of the way before anything is timed
        warm_dir = os.path.join(scratch, "warm")
        os.makedirs(warm_dir)
        warm = WORKLOADS[args.workload](SMOKE, args.seed, warm_dir)
        warm.setup()
        warm.round(0, harness.Recorder(rec.clock))
        shutil.rmtree(warm_dir)
        startup_s = time.perf_counter() - _START

        seconds = 0.0 if args.smoke else args.seconds
        if args.trace:
            metrics, info = tracing.traced_run(
                workload, rec, seconds, args.out)
        else:

            def one_round(r: int) -> None:
                workload.round(r, rec)
                rec.settle()

            rounds = harness.run_rounds(one_round, seconds, scale.min_rounds)
            metrics = workload.end_to_end(rec, setup_s)
            info = {"rounds": rounds}
        info.update(rec.clock.noise())
        info["wall_over_reference"] = {
            phase: round(sum(rec.raw[phase])
                         / sum(rec.all_samples(phase)), 3)
            for phase in sorted(rec.raw)
        }

        print(f"workload {args.workload}  seed {args.seed}  "
              f"{'smoke' if args.smoke else 'default'} scale  "
              f"trace {args.trace}")
        _print_metrics("per-layer metrics" if args.trace
                       else "end-to-end metrics", metrics)
        print("run:")
        for key, value in {
            "ops_attempted": rec.attempted,
            "ops_failed": rec.failed,
            "samples": {phase: rec.n_samples(phase)
                        for phase in sorted(rec.samples)},
            "setup_s_repeats": [round(s, 4)
                                for s in rec.all_samples("setup")],
            "startup_s": round(startup_s, 3),
            "wall_s": round(time.perf_counter() - _START, 3),
            **info,
            "flush_policy": "program defaults: live WAL fsync every 4096 "
                            "obs; SQLite default journal/synchronous",
            **harness.provenance(_ROOT, args.seed),
        }.items():
            print(f"  {key}: {value}")
        for err in rec.errors:
            print(f"FAILED {err}", file=sys.stderr)
        print(_result_line(rec, metrics))
        return 0 if rec.failed == 0 else 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _reexec_with_fixed_hash_seed() -> None:
    """str hashes feed set and dict order; pin them so two runs of one
    seed walk the same path."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


if __name__ == "__main__":
    _reexec_with_fixed_hash_seed()
    sys.exit(main())

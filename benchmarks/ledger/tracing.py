"""The traced run: where the time of a workload goes, layer by layer.

Rounds alternate untraced and traced (spans.py wraps the layer
boundaries for the traced ones), so ``trace.overhead_ratio`` compares
like with like inside one process; then the direct probes (probes.py)
run.  End-to-end numbers never come from here.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Tuple

from repro.obs import REGISTRY

from . import probes
from .catalog import PER_LAYER
from .harness import Recorder, median, run_rounds
from .spans import Tracer, layer_targets
from .workloads import MAIN_PHASE

__all__ = ["traced_run"]

#: Share of ``--seconds`` the alternating rounds may use; the probes get
#: the rest.
ROUNDS_SHARE = 0.55

#: per-layer metric <- median duration (ms) of the span of that name
_SPAN_MS_P50 = {
    "store.open_ms": "store.open",
    "executor.execute_ms_p50": "executor.execute",
    "live.snapshot_ms_p50": "live.snapshot",
    "partitions.manifest_save_ms": "partitions.manifest_save",
    "livewal.rewrite_ms_p50": "livewal.rewrite",
    "sharding.open_ms": "sharding.open",
}

_COUNTERS = {
    "rows_fetched": ("repro_engine_rows_fetched_total",
                     ({"operator": "point_range"}, {"operator": "line_cross"})),
    "rows_matched": ("repro_engine_rows_matched_total",
                     ({"operator": "point_range"}, {"operator": "line_cross"})),
    "parts_scanned": ("repro_engine_partitions_scanned_total", (None,)),
    "parts_pruned": ("repro_engine_partitions_pruned_total", (None,)),
}


class Observer:
    """Wraps each op of a traced round in a root span and, for the
    workload's main query phase, adds up what the always-on registry
    counted while it ran (exact counts: one client, nothing else
    running)."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._handles = {
            key: [REGISTRY.get(name, labels) for labels in label_sets]
            for key, (name, label_sets) in _COUNTERS.items()
        }
        self.totals = {key: 0 for key in _COUNTERS}
        self.ops = 0
        self.pairs = 0

    def _read(self) -> Dict[str, int]:
        return {
            key: sum(h.value for h in handles if h is not None)
            for key, handles in self._handles.items()
        }

    @contextmanager
    def __call__(self, phase: str, op_id: int):
        counting = phase == MAIN_PHASE
        self.tracer.op = f"{phase}[{op_id}]"
        seen = []
        before = self._read() if counting else None
        with self.tracer.span("op." + phase):
            yield seen.append
        self.tracer.op = None
        if counting:
            after = self._read()
            for key in self.totals:
                self.totals[key] += after[key] - before[key]
            self.ops += 1
            if seen and hasattr(seen[0], "pairs"):
                self.pairs += len(seen[0].pairs)


def traced_run(workload, rec: Recorder, seconds: float, out_dir: str
               ) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, object]]:
    tracer = Tracer(rec.clock)
    observer = Observer(tracer)
    traced = Recorder(rec.clock)
    traced.around = observer

    def one_round(r: int) -> None:
        if r % 2 == 0:
            workload.round(r, rec)
            rec.settle()
        else:
            tracer.install(layer_targets())
            try:
                with tracer.span("round"):
                    workload.round(r, traced)
            finally:
                tracer.uninstall()
            traced.settle()

    rounds = run_rounds(one_round, seconds * ROUNDS_SHARE, min_rounds=2,
                        stop_on_odd=False)

    layer = {name: 0.0 for name, _unit, _better in PER_LAYER}
    for metric, span_name in _SPAN_MS_P50.items():
        durations = tracer.durations(span_name)
        if durations:
            layer[metric] = 1e3 * median(durations)
    layer["executor.self_ms_p50"] = 1e3 * median(
        tracer.self_times("executor.execute"))
    searches = tracer.self_times("session.search")
    if searches:
        layer["session.overhead_ms_p50"] = 1e3 * median(searches)
    batches = (tracer.durations("executor.execute_batch_partitioned")
               or tracer.durations("executor.execute_batch"))
    if batches:
        layer["executor.batch_cells_per_s"] = (
            len(workload.queries) / median(batches))
    finalizes = tracer.durations("live.finalize")
    if finalizes:
        layer["live.finalize_s"] = median(finalizes)

    t = observer.totals
    ops = max(observer.ops, 1)
    layer["store.rows_fetched_per_query"] = t["rows_fetched"] / ops
    layer["executor.rows_fetched_per_pair"] = (
        t["rows_fetched"] / max(observer.pairs, 1))
    layer["executor.refine_kept_ratio"] = (
        t["rows_matched"] / max(t["rows_fetched"], 1))
    layer["live.partitions_scanned_mean"] = t["parts_scanned"] / ops
    layer["live.partitions_pruned_mean"] = t["parts_pruned"] / ops

    layer["trace.overhead_ratio"] = (
        sum(traced.op_medians(MAIN_PHASE)) / sum(rec.op_medians(MAIN_PHASE)))

    scratch = os.path.join(workload.scratch, "probes")
    os.makedirs(scratch)
    k = workload.scale.probe_queries
    written, store = probes.write_side(
        rec, workload.probe_series, workload.backend, scratch,
        reps=workload.scale.min_rounds)
    try:
        layer.update(written)
        layer.update(probes.read_side(rec, store, workload.queries[:k]))
    finally:
        store.close()
    layer.update(workload.layer_probes(rec, scratch))

    kernel = rec.clock.kernel_s
    layer["host.calib_ms_p50"] = 1e3 * median(kernel)
    layer["host.calib_spread"] = max(kernel) / min(kernel)

    rec.attempted += traced.attempted
    rec.failed += traced.failed
    rec.errors += traced.errors
    for phase, ops in traced.samples.items():
        for op_id, samples in ops.items():
            rec.samples[f"traced.{phase}"][op_id] = samples

    path = os.path.join(out_dir, f"trace-{workload.name}.json")
    tracer.dump(path, {"workload": workload.name, "seed": workload.seed,
                       "traced_rounds": rounds // 2})
    units = {name: unit for name, unit, _better in PER_LAYER}
    metrics = {name: (float(layer[name]), units[name]) for name in units}
    return metrics, {
        "rounds": rounds,
        "spans": len(tracer.closed()),
        "trace_file": path,
    }

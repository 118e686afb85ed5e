"""The four workloads.

Each workload is closed-loop with one client: ``round(r)`` runs every
phase once (write path, cold opens, the query mix, the grid), the runner
repeats rounds until its time budget is used, and the end-to-end metrics
are read off the per-op medians.  Round 0 also checks every answer
against the memory-store reference.  Why each workload exists, and what
it is sized to stress, is in README.md.
"""

from __future__ import annotations

import gc
import os
import shutil
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.guarantees import audit_completeness, audit_soundness
from repro.core.index import SegDiffIndex
from repro.core.live import LiveIndex
from repro.core.queries import DropQuery, JumpQuery
from repro.datagen import PiecewiseLinearSignal, TimeSeries
from repro.engine.resilience import ResultStatus
from repro.engine.sharding import ShardedIndex

from . import inputs, probes
from .harness import (
    Recorder,
    dir_bytes,
    median,
    peak_rss_mb,
    percentile,
)
from .inputs import COLD_QUERY, EPSILON, WINDOW, digest, digest_rows, query_kind

__all__ = ["Scale", "DEFAULT", "SMOKE", "WORKLOADS", "Metric", "MAIN_PHASE"]

HOUR = 3600.0
OBS_PER_DAY = 288  # one reading every five minutes

#: name -> (value, unit)
Metric = Tuple[float, str]

#: The phase whose per-op medians give query_p50/p90 and queries_per_s.
MAIN_PHASE = "query"


@dataclass(frozen=True)
class Scale:
    """Input sizes; the same for every seed."""

    days: int  # single-sensor series length (hist_*, live_minidb)
    n_t: int  # query mix: T bins x V bins x {drop, jump}
    n_v: int
    live_queries_per_day: int
    seal_rows: int
    sensors: int  # transect_sharded
    sensor_days: int
    fan_t: int  # fan-out mix: T bins x V bins, drops only
    fan_v: int
    routed: int  # single-sensor routed queries
    colds: int  # cold opens per round
    audit_obs: int  # Theorem 1 audit prefix
    min_rounds: int
    setups: int  # times the set-up is repeated for setup_s
    probe_queries: int  # queries the traced run's direct probes replay


#: Sized on the 2-vCPU box so that three rounds of the slowest workload
#: fit the 16 s a run measures (README.md, "Sizing").
DEFAULT = Scale(
    days=42, n_t=10, n_v=6, live_queries_per_day=3, seal_rows=20_000,
    sensors=25, sensor_days=1, fan_t=10, fan_v=10, routed=300, colds=3,
    audit_obs=OBS_PER_DAY, min_rounds=3, setups=3, probe_queries=24,
)

#: Schema and answers only: 7 days, 10 ops, one round.
SMOKE = Scale(
    days=7, n_t=5, n_v=1, live_queries_per_day=2, seal_rows=5_000,
    sensors=4, sensor_days=1, fan_t=5, fan_v=2, routed=12, colds=1,
    audit_obs=OBS_PER_DAY // 2, min_rounds=1, setups=1, probe_queries=4,
)

_AUDIT_QUERIES = (
    DropQuery(1 * HOUR, -3.0),
    DropQuery(2 * HOUR, -1.0),
    DropQuery(0.5 * HOUR, -5.0),
    JumpQuery(1 * HOUR, 3.0),
    JumpQuery(2 * HOUR, 1.0),
)


def _complete(rec: Recorder, result, label: str) -> bool:
    """An op's verdict: it returned, and its status is COMPLETE."""
    if result is None:
        return False  # raised; already tallied by Recorder.time
    return rec.check(
        result.status is ResultStatus.COMPLETE,
        f"{label}: status {result.status}",
    )


def _audit_theorem_1(rec: Recorder, series: TimeSeries, n_obs: int) -> None:
    """No false negatives, false positives within 2 eps, on a prefix."""
    prefix = TimeSeries(series.times[:n_obs], series.values[:n_obs])
    signal = PiecewiseLinearSignal.from_series(prefix)
    with SegDiffIndex.build(prefix, EPSILON, WINDOW) as index:
        for q in _AUDIT_QUERIES:
            rec.attempted += 1
            search = (index.search_drops if isinstance(q, DropQuery)
                      else index.search_jumps)
            pairs = search(q.t_threshold, q.v_threshold)
            missed = audit_completeness(pairs, signal, q)
            unsound = audit_soundness(pairs, signal, q, EPSILON)
            rec.check(
                not missed and not unsound,
                f"Theorem 1 audit {q}: {len(missed)} missed, "
                f"{len(unsound)} unsound",
            )


class Workload:
    """Common shape; subclasses fill in set-up and one round."""

    name = ""
    #: store format of the index files; the traced run's store probes
    #: use the same one
    backend = ""

    def __init__(self, scale: Scale, seed: int, scratch: str) -> None:
        self.scale = scale
        self.seed = seed
        self.scratch = scratch
        self.n_points = 0
        self.index_bytes = 0

    # -- set-up (repeatable: builds inputs and reference, no files) ---- #

    def setup(self) -> None:
        raise NotImplementedError

    def audit(self, rec: Recorder) -> None:
        raise NotImplementedError

    def round(self, r: int, rec: Recorder) -> None:
        raise NotImplementedError

    def layer_probes(self, rec: Recorder, scratch: str) -> Dict[str, float]:
        """Per-layer metrics only this workload's layers have."""
        return {}

    # -- results ------------------------------------------------------- #

    def _grid_cells_per_s(self, rec: Recorder) -> float:
        return len(self.queries) / rec.median_of("grid")

    def _write_s(self, rec: Recorder) -> float:
        """Seconds the write path to a durable, queryable index took."""
        return rec.median_of("write")

    def end_to_end(self, rec: Recorder, setup_s: float) -> Dict[str, Metric]:
        q = rec.op_medians(MAIN_PHASE)
        return {
            "setup_s": (setup_s, "s"),
            "write_points_per_s":
                (self.n_points / self._write_s(rec), "points/s"),
            "bytes_per_point": (self.index_bytes / self.n_points, "B/point"),
            "query_p50_ms": (1e3 * percentile(q, 50), "ms"),
            "query_p90_ms": (1e3 * percentile(q, 90), "ms"),
            "queries_per_s": (len(q) / sum(q), "queries/s"),
            "grid_cells_per_s": (self._grid_cells_per_s(rec), "cells/s"),
            "cold_query_ms": (1e3 * rec.median_of("cold"), "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }


# --------------------------------------------------------------------- #
# hist_memory / hist_sqlite: one sensor, batch build, query mix, grid
# --------------------------------------------------------------------- #


class _SingleSensor(Workload):
    """Inputs shared by the three single-sensor workloads."""

    def setup(self) -> None:
        s = self.scale
        self.series = inputs.sensor_series(s.days, self.seed)
        self.n_points = len(self.series.times)
        self.queries = inputs.query_mix(self.seed, s.n_t, s.n_v, 0.5, 12.0)
        with SegDiffIndex.build(self.series, EPSILON, WINDOW) as ref:
            answers = ref.search_batch(self.queries + [COLD_QUERY])
        digests = [digest(pairs) for pairs in answers]
        self.ref_digests, self.cold_digest = digests[:-1], digests[-1]
        self.probe_series = self.series

    def audit(self, rec: Recorder) -> None:
        _audit_theorem_1(rec, self.series, self.scale.audit_obs)

    def _check_grid(self, rec: Recorder, answers) -> None:
        if answers is None:
            return
        for i, pairs in enumerate(answers):
            rec.check(digest(pairs) == self.ref_digests[i],
                      f"{self.name} grid[{i}]: digest differs from reference")


class _Hist(_SingleSensor):

    def _ask_cold(self, index: SegDiffIndex):
        return index.search_outcome(
            "drop", COLD_QUERY.t_threshold, COLD_QUERY.v_threshold,
            mode="auto",
        )

    def _check_cold(self, rec: Recorder, outcome, check: bool) -> None:
        if _complete(rec, outcome, "cold") and check:
            rec.check(digest(outcome.pairs) == self.cold_digest,
                      f"{self.name} cold query: digest differs")

    def _build(self, rec: Recorder, r: int) -> Optional[SegDiffIndex]:
        raise NotImplementedError

    def _release(self, index: SegDiffIndex) -> None:
        index.close()

    def round(self, r: int, rec: Recorder) -> None:
        check = r == 0
        gc.collect()
        index = self._build(rec, r)
        if index is None:
            return
        try:
            gc.collect()
            for i, q in enumerate(self.queries):
                out = rec.time(
                    "query", i, index.search_outcome, query_kind(q),
                    q.t_threshold, q.v_threshold, mode="auto",
                )
                if _complete(rec, out, f"query[{i}]") and check:
                    rec.check(
                        digest(out.pairs) == self.ref_digests[i],
                        f"{self.name} query[{i}]: digest differs from "
                        "reference",
                    )
            gc.collect()
            answers = rec.time("grid", 0, index.search_batch, self.queries)
            if check:
                self._check_grid(rec, answers)
        finally:
            self._release(index)


class HistMemory(_Hist):
    name = "hist_memory"
    backend = "memory"

    def _build(self, rec, r):
        # cold = a fresh build's first query (lazy session, planner
        # sample); there is nothing on disk to open, so every cold cycle
        # is a build of its own
        index = None
        for c in range(self.scale.colds):
            if index is not None:
                index.close()
            index = rec.time("write", 0, SegDiffIndex.build, self.series,
                             EPSILON, WINDOW, backend="memory")
            if index is None:
                return None
            out = rec.time("cold", 0, self._ask_cold, index)
            self._check_cold(rec, out, r == 0 and c == 0)
        self.index_bytes = (
            index.store.feature_bytes() + index.store.index_bytes()
        )
        return index


class HistSqlite(_Hist):
    name = "hist_sqlite"
    backend = "sqlite"

    def _open_and_ask(self, path: str):
        index = SegDiffIndex.open(path)
        try:
            return index, self._ask_cold(index)
        except BaseException:
            index.close()
            raise

    def _build(self, rec, r):
        self._path = os.path.join(self.scratch, f"hist-{r}.sqlite")
        index = rec.time("write", 0, SegDiffIndex.build, self.series,
                         EPSILON, WINDOW, backend="sqlite", path=self._path)
        if index is None:
            return None
        index.close()
        self.index_bytes = os.path.getsize(self._path)
        index = None
        for c in range(self.scale.colds):
            if index is not None:
                index.close()
            opened = rec.time("cold", 0, self._open_and_ask, self._path)
            if opened is None:
                return None
            index, out = opened
            self._check_cold(rec, out, r == 0 and c == 0)
        return index  # the last cold open serves the query pass

    def _release(self, index):
        index.close()
        for f in os.listdir(self.scratch):
            if f.startswith(os.path.basename(self._path)):
                os.remove(os.path.join(self.scratch, f))


# --------------------------------------------------------------------- #
# live_minidb: stream a day at a time, query beside the writes
# --------------------------------------------------------------------- #


class LiveMinidb(_SingleSensor):
    name = "live_minidb"
    backend = "minidb"

    def layer_probes(self, rec, scratch):
        return probes.live_side(self, rec, scratch)

    def _write_s(self, rec: Recorder) -> float:
        # per round: every append (auto-seals inside) plus the finalize
        parts = list(rec.samples["append"].values()) + [
            rec.samples["finalize"][0]]
        return median([sum(round_) for round_ in zip(*parts)])

    def _new_live(self, directory: str) -> LiveIndex:
        # WAL on with the program's default flush policy (fsync every
        # 4096 observations)
        return LiveIndex(EPSILON, WINDOW, directory=directory,
                         backend=self.backend,
                         seal_rows=self.scale.seal_rows)

    def days(self):
        ts = np.asarray(self.series.times)
        vs = np.asarray(self.series.values)
        for lo in range(0, ts.shape[0], OBS_PER_DAY):
            yield ts[lo:lo + OBS_PER_DAY], vs[lo:lo + OBS_PER_DAY]

    def _reopen_and_ask(self, directory: str):
        live = LiveIndex.open(directory)  # replays the WAL
        try:
            with live.snapshot() as snap:
                return snap.execute(COLD_QUERY, mode="auto")
        finally:
            live.close()

    def round(self, r: int, rec: Recorder) -> None:
        check = r == 0
        directory = os.path.join(self.scratch, f"live-{r}")
        gc.collect()
        live = self._new_live(directory)
        try:
            qi = 0
            for day, (ts, vs) in enumerate(self.days()):
                rec.time("append", day, live.append_array, ts, vs)
                with live.snapshot() as snap:
                    for _ in range(self.scale.live_queries_per_day):
                        q = self.queries[qi % len(self.queries)]
                        res = rec.time("query", qi, snap.execute, q,
                                       mode="auto")
                        _complete(rec, res, f"live query[{qi}]")
                        qi += 1
        finally:
            live.close()  # no finalize: the WAL holds the hot tail

        for _ in range(self.scale.colds):
            copy = f"{directory}-copy"
            shutil.copytree(directory, copy)
            try:
                res = rec.time("cold", 0, self._reopen_and_ask, copy)
                _complete(rec, res, "live cold")
            finally:
                shutil.rmtree(copy)

        gc.collect()
        live = LiveIndex.open(directory)
        try:
            rec.time("finalize", 0, live.finalize)
            with live.snapshot() as snap:
                gc.collect()
                answers = rec.time("grid", 0, snap.search_batch,
                                   self.queries)
                if check:
                    self._check_grid(rec, answers)
        finally:
            live.close()
        self.index_bytes = dir_bytes(directory)
        shutil.rmtree(directory)


# --------------------------------------------------------------------- #
# transect_sharded: 25 tiny shards, fan-out and routed queries
# --------------------------------------------------------------------- #


class TransectSharded(Workload):
    name = "transect_sharded"
    backend = "sqlite"

    def layer_probes(self, rec, scratch):
        directory = os.path.join(scratch, "probe-shards")
        os.makedirs(directory)
        sharded = self._build(directory)
        try:
            out = probes.shard_side(self, rec, sharded)
        finally:
            sharded.close()
            shutil.rmtree(directory)
        out["sharding.routed_ms_p50"] = 1e3 * percentile(
            rec.op_medians("routed"), 50)
        return out

    def setup(self) -> None:
        s = self.scale
        self.sensors = inputs.transect_series(s.sensors, s.sensor_days,
                                              self.seed)
        self.names = list(self.sensors)
        self.n_points = sum(len(x.times) for x in self.sensors.values())
        self.queries = inputs.query_mix(self.seed, s.fan_t, s.fan_v,
                                        2.0, 12.0, kinds=("drop",))
        # reference: one memory index per sensor; the fan-out answer is
        # the union of the per-sensor answers
        asked = self.queries + [COLD_QUERY]
        per_sensor: List[List[np.ndarray]] = []
        for series in self.sensors.values():
            with SegDiffIndex.build(series, EPSILON, WINDOW) as ref:
                per_sensor.append([
                    np.array([p.as_tuple() for p in pairs],
                             dtype=np.float64).reshape(-1, 4)
                    for pairs in ref.search_batch(asked, mode="index")
                ])
        unions = [
            digest_rows(np.unique(np.concatenate(blocks), axis=0))
            for blocks in zip(*per_sensor)
        ]
        self.ref_digests, self.cold_digest = unions[:-1], unions[-1]
        self.routed = [
            (i % len(self.queries), i % len(self.names))
            for i in range(s.routed)
        ]
        self.routed_digests = [
            digest_rows(per_sensor[si][qi]) for qi, si in self.routed
        ]
        self.probe_series = self.sensors[self.names[len(self.names) // 2]]

    def audit(self, rec: Recorder) -> None:
        _audit_theorem_1(rec, self.probe_series, self.scale.audit_obs)

    def _build(self, directory: str) -> ShardedIndex:
        sharded = ShardedIndex.build_transect(
            self.sensors, EPSILON, WINDOW, backend=self.backend,
            directory=directory, max_workers=2,
        )
        sharded.save_manifest(directory)
        return sharded

    def _ask(self, sharded: ShardedIndex, q, **kw):
        # mode="index", not "auto": see README.md, "Known defect"
        return sharded.search_outcome(
            query_kind(q), q.t_threshold, q.v_threshold, mode="index", **kw
        )

    def _open_and_ask(self, directory: str):
        sharded = ShardedIndex.open(directory, max_workers=2)
        try:
            return sharded, self._ask(sharded, COLD_QUERY)
        except BaseException:
            sharded.close()
            raise

    def round(self, r: int, rec: Recorder) -> None:
        check = r == 0
        directory = os.path.join(self.scratch, f"shards-{r}")
        os.makedirs(directory)
        gc.collect()
        try:
            sharded = rec.time("write", 0, self._build, directory)
            if sharded is None:
                return
            sharded.close()
            self.index_bytes = dir_bytes(directory)
            sharded = None
            for c in range(self.scale.colds):
                if sharded is not None:
                    sharded.close()
                opened = rec.time("cold", 0, self._open_and_ask, directory)
                if opened is None:
                    return
                sharded, out = opened
                if _complete(rec, out, "sharded cold") and check and c == 0:
                    rec.check(digest(out.pairs) == self.cold_digest,
                              "sharded cold query: digest differs")
            try:
                gc.collect()
                for i, q in enumerate(self.queries):
                    out = rec.time("query", i, self._ask, sharded, q)
                    if _complete(rec, out, f"fan-out[{i}]") and check:
                        rec.check(
                            digest(out.pairs) == self.ref_digests[i],
                            f"fan-out[{i}]: digest differs from the union "
                            "of per-sensor references",
                        )
                gc.collect()
                for i, (qi, si) in enumerate(self.routed):
                    out = rec.time("routed", i, self._ask, sharded,
                                   self.queries[qi],
                                   sensors=[self.names[si]])
                    if _complete(rec, out, f"routed[{i}]") and check:
                        rec.check(
                            digest(out.pairs) == self.routed_digests[i],
                            f"routed[{i}]: digest differs from the sensor's "
                            "reference",
                        )
            finally:
                sharded.close()
        finally:
            shutil.rmtree(directory)

    def _grid_cells_per_s(self, rec: Recorder) -> float:
        # no batch API on a sharded index: a (T, V) grid drilled down one
        # sensor at a time is a loop of routed single-shard queries
        routed = rec.op_medians("routed")
        return len(routed) / sum(routed)


WORKLOADS = {
    w.name: w for w in (HistMemory, HistSqlite, LiveMinidb, TransectSharded)
}

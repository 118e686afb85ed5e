"""Tests for the observability layer: metrics registry, tracing spans,
slow-query events, exporters, and the structured storage logs."""

import json
import logging
import math
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.obs import (
    RECORDER,
    RECORDER_EVENT_SCHEMA,
    REGISTRY,
    MetricsRegistry,
    default_threshold,
    enabled_ctx,
    iter_spans,
    parse_prometheus,
    render_span_tree,
    render_table,
    set_tracing_enabled,
    span,
    to_jsonl,
    to_prometheus,
    validate_jsonl,
    validate_schema,
)
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as obs_recorder

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA_PATH = os.path.join(ROOT, "benchmarks", "metrics.schema.json")


@pytest.fixture
def registry():
    return MetricsRegistry()


# ---------------------------------------------------------------------- #
# registry
# ---------------------------------------------------------------------- #


class TestRegistry:
    def test_counter_inc(self, registry):
        c = registry.counter("c_total")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_registration_is_idempotent(self, registry):
        a = registry.counter("x_total", labels={"k": "1"})
        b = registry.counter("x_total", labels={"k": "1"})
        assert a is b
        other = registry.counter("x_total", labels={"k": "2"})
        assert other is not a

    def test_type_conflict_raises(self, registry):
        registry.counter("y_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("y_total")

    def test_labels_are_distinct_series(self, registry):
        registry.counter("z_total", labels={"backend": "a"}).inc(1)
        registry.counter("z_total", labels={"backend": "b"}).inc(2)
        by_labels = {
            s.labels_dict().get("backend"): s.value
            for s in registry.collect()
        }
        assert by_labels == {"a": 1.0, "b": 2.0}

    def test_gauge_up_and_down(self, registry):
        g = registry.gauge("open")
        g.inc()
        g.inc()
        g.dec()
        assert g.value == 1.0
        g.set(7.5)
        assert g.value == 7.5

    def test_reset_zeroes_in_place(self, registry):
        c = registry.counter("r_total")
        c.inc(3)
        registry.reset()
        assert c.value == 0
        c.inc()  # the pre-reset handle is still live
        assert c.value == 1

    def test_disabled_metrics_do_not_record(self, registry):
        c = registry.counter("d_total")
        aon = registry.counter("a_total", always_on=True)
        obs_metrics.set_enabled(False)
        try:
            c.inc()
            aon.inc()
        finally:
            obs_metrics.set_enabled(True)
        assert c.value == 0
        assert aon.value == 1  # always-on ignores the switch

    def test_counter_under_threads(self, registry):
        c = registry.counter("t_total")
        n_threads, n_incs = 8, 10_000

        def worker():
            for _ in range(n_incs):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == n_threads * n_incs


class TestHistogram:
    def test_bucket_edges_are_inclusive_upper_bounds(self, registry):
        h = registry.histogram("h", buckets=(1.0, 2.0, 5.0))
        for v in (0.5, 1.0, 1.5, 2.0, 5.0, 99.0):
            h.observe(v)
        # per-bucket (non-cumulative): le=1 gets {0.5, 1.0}, le=2 gets
        # {1.5, 2.0}, le=5 gets {5.0}, +Inf gets {99.0}
        assert h.per_bucket_counts() == [2, 2, 1, 1]
        sample = h.sample()
        assert [n for _le, n in sample.buckets] == [2, 4, 5, 6]
        assert sample.buckets[-1][0] == float("inf")
        assert sample.count == 6
        assert sample.sum == pytest.approx(0.5 + 1.0 + 1.5 + 2.0 + 5.0 + 99.0)

    def test_non_increasing_buckets_rejected(self, registry):
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("bad", buckets=(1.0, 1.0))

    def test_timer_records_elapsed(self, registry):
        h = registry.histogram("t_seconds", buckets=(0.0001, 10.0))
        with h.time():
            time.sleep(0.002)
        assert h.count == 1
        assert 0.001 < h.total < 10.0

    def test_timer_skips_work_when_disabled(self, registry):
        h = registry.histogram("off_seconds")
        obs_metrics.set_enabled(False)
        try:
            with h.time():
                pass
        finally:
            obs_metrics.set_enabled(True)
        assert h.count == 0


# ---------------------------------------------------------------------- #
# tracing
# ---------------------------------------------------------------------- #


def _events(category):
    return [e for e in RECORDER.tail() if e.category == category]


def _traces():
    """The span trees of the ``trace`` events in the recorder."""
    return [e.attrs for e in _events("trace")]


class TestTracing:
    def setup_method(self):
        set_tracing_enabled(False)
        RECORDER.clear()

    def test_disabled_by_default_records_nothing(self):
        with span("root"):
            pass
        assert _traces() == []

    def test_nesting_and_attributes(self):
        with enabled_ctx():
            with span("root") as r:
                r.set_attribute("k", "v")
                with span("child.a"):
                    with span("leaf"):
                        pass
                with span("child.b"):
                    pass
        assert [s.name for s in iter_spans(r)] == [
            "root", "child.a", "leaf", "child.b",
        ]
        (event,) = _events("trace")
        assert event.name == "root"
        assert event.query_id is None  # no query context bound
        root = event.attrs
        assert root == r.to_dict()
        assert root["attributes"] == {"k": "v"}
        assert [c["name"] for c in root["children"]] == [
            "child.a", "child.b",
        ]
        assert root["children"][0]["children"][0]["name"] == "leaf"

    def test_exception_recorded_and_reraised(self):
        with enabled_ctx():
            with pytest.raises(RuntimeError, match="boom"):
                with span("root"):
                    with span("inner"):
                        raise RuntimeError("boom")
        root = _traces()[0]
        assert root["error"] == "RuntimeError: boom"
        assert root["children"][0]["error"] == "RuntimeError: boom"
        assert root["duration_s"] >= root["children"][0]["duration_s"]

    def test_render_span_tree(self):
        with enabled_ctx():
            with span("query.search") as r:
                r.set_attribute("pairs", 3)
                with span("op.point_range"):
                    pass
        text = render_span_tree(_traces()[0])
        lines = text.splitlines()
        assert lines[0].startswith("query.search")
        assert "[pairs=3]" in lines[0]
        assert lines[1].startswith("  op.point_range")
        assert "ms" in lines[1]

    def test_trace_ring_buffer_is_bounded(self):
        # traces share the recorder's one bound with every other event
        maxlen = RECORDER._events.maxlen
        with enabled_ctx():
            for i in range(maxlen + 44):
                with span(f"r{i}"):
                    pass
        roots = _traces()
        assert len(RECORDER) == len(roots) == maxlen
        assert roots[-1]["name"] == f"r{maxlen + 43}"

    def test_query_span_children_cover_the_root(self):
        """A search trace's direct children must account for (almost)
        all of the root span's time — the leaf-sum acceptance check."""
        from repro.core.index import SegDiffIndex
        from repro.datagen import CADConfig, CADTransectGenerator

        series = CADTransectGenerator(CADConfig(days=6, n_sensors=1)).generate(0)
        index = SegDiffIndex.build(series, epsilon=0.2, window=8 * 3600.0)
        RECORDER.clear()
        try:
            with enabled_ctx():
                index.search_drops(3600.0, -0.5)
        finally:
            index.close()
        roots = [r for r in _traces() if r["name"] == "query.search"]
        assert len(roots) == 1
        root = roots[0]
        names = [c["name"] for c in root["children"]]
        assert "query.plan" in names
        assert "op.point_range" in names
        assert "op.union_dedup" in names
        child_sum = sum(c["duration_s"] for c in root["children"])
        assert child_sum <= root["duration_s"] + 1e-6
        assert child_sum >= 0.7 * root["duration_s"]


# ---------------------------------------------------------------------- #
# slow-query events
# ---------------------------------------------------------------------- #


class TestSlowQueryLog:
    def setup_method(self):
        RECORDER.clear()

    def test_threshold_zero_logs_every_query(self, caplog, slow_threshold):
        from repro.core.index import SegDiffIndex
        from repro.core.queries import DropQuery
        from repro.datagen import CADConfig, CADTransectGenerator
        from repro.engine.session import QuerySession

        series = CADTransectGenerator(CADConfig(days=2, n_sensors=1)).generate(0)
        index = SegDiffIndex.build(series, epsilon=0.2, window=8 * 3600.0)
        slow_threshold(0.0)
        try:
            session = QuerySession(index.store)
            with caplog.at_level(logging.WARNING, logger="repro.engine"):
                outcome = session.search_outcome(DropQuery(3600.0, -3.0))
        finally:
            index.close()
        (event,) = _events("slow_query")
        assert event.name == "search"
        assert event.query_id == outcome.query_id
        rec = event.attrs
        assert rec["duration_ms"] >= 0.0
        assert rec["threshold_ms"] == 0.0
        assert "point" in rec["plan"] or "Point" in rec["plan"]
        assert rec["operators"][0]["operator"] == "point_range"
        assert rec["n_pairs"] == len(outcome.pairs)
        assert rec["status"] == "complete"
        assert any("slow query" in m for m in caplog.messages)
        validate_schema(
            json.loads(json.dumps(event.to_dict())), RECORDER_EVENT_SCHEMA
        )

    def test_no_threshold_means_no_log(self):
        from repro.core.index import SegDiffIndex
        from repro.datagen import CADConfig, CADTransectGenerator

        assert default_threshold() is None
        series = CADTransectGenerator(CADConfig(days=1, n_sensors=1)).generate(0)
        index = SegDiffIndex.build(series, epsilon=0.2, window=8 * 3600.0)
        try:
            index.search_drops(3600.0, -3.0)
        finally:
            index.close()
        assert _events("slow_query") == []

    def test_default_threshold_fallback(self, slow_threshold):
        from repro.core.index import SegDiffIndex
        from repro.datagen import CADConfig, CADTransectGenerator

        series = CADTransectGenerator(CADConfig(days=1, n_sensors=1)).generate(0)
        index = SegDiffIndex.build(series, epsilon=0.2, window=8 * 3600.0)
        slow_threshold(0.0)
        try:
            index.search_drops(3600.0, -3.0)
        finally:
            index.close()
        assert len(_events("slow_query")) == 1

    def test_bounded_buffer(self, slow_threshold):
        """Slow records and the traces they retain share one bound."""
        from repro.core.index import SegDiffIndex
        from repro.datagen import CADConfig, CADTransectGenerator

        maxlen = RECORDER._events.maxlen
        series = CADTransectGenerator(CADConfig(days=1, n_sensors=1)).generate(0)
        index = SegDiffIndex.build(series, epsilon=0.2, window=8 * 3600.0)
        slow_threshold(0.0)
        try:
            for _ in range(maxlen // 2 + 8):
                index.search_drops(3600.0, -3.0)
        finally:
            index.close()
        assert len(RECORDER) == maxlen
        assert {e.category for e in RECORDER.tail()} == {
            "slow_query", "trace",
        }


class TestSlowQueryThreshold:
    """One process-wide threshold, and it refuses values that would turn
    the slow-query record on for every query or off without a word."""

    @pytest.mark.parametrize("bad", [-1.0, -1e-9, math.nan])
    def test_setter_rejects_negative_and_nan(self, bad, slow_threshold):
        with pytest.raises(ValueError, match="threshold"):
            slow_threshold(bad)

    def test_setter_takes_zero_and_none(self, slow_threshold):
        slow_threshold(0)
        assert default_threshold() == 0.0
        slow_threshold(None)
        assert default_threshold() is None

    @pytest.mark.parametrize("raw", ["-5", "abc", "nan"])
    def test_bad_env_value_warns_and_leaves_the_threshold_off(self, raw):
        env = dict(os.environ, REPRO_SLOW_QUERY_MS=raw)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH"))
            if p
        )
        proc = subprocess.run(
            [sys.executable, "-c",
             "from repro import obs; print(obs.default_threshold())"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "None"
        assert proc.stderr.count("REPRO_SLOW_QUERY_MS") == 1, proc.stderr

    def test_env_value_in_milliseconds(self, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "250")
        with caplog.at_level(logging.WARNING, logger="repro.engine"):
            assert obs_recorder._env_threshold() == 0.25
        assert caplog.messages == []


# ---------------------------------------------------------------------- #
# exporters
# ---------------------------------------------------------------------- #


class TestExport:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("req_total", "requests", labels={"backend": "m"}).inc(3)
        reg.gauge("open").set(2.0)
        h = reg.histogram("lat_seconds", buckets=(0.01, 0.1, 1.0))
        h.observe(0.005)
        h.observe(0.5)
        return reg

    def test_prometheus_round_trip(self):
        reg = self._populated()
        parsed = parse_prometheus(to_prometheus(reg))
        assert parsed["req_total"] == {"backend=m": 3.0}
        assert parsed["open"] == {"": 2.0}
        assert parsed["lat_seconds_count"][""] == 2.0
        assert parsed["lat_seconds_sum"][""] == pytest.approx(0.505)
        buckets = parsed["lat_seconds_bucket"]
        assert buckets["le=0.01"] == 1.0
        assert buckets["le=1"] == 2.0
        assert buckets["le=+Inf"] == 2.0

    def test_jsonl_matches_checked_in_schema(self):
        with open(SCHEMA_PATH) as fh:
            schema = json.load(fh)
        reg = self._populated()
        n = validate_jsonl(to_jsonl(reg).splitlines(), schema)
        assert n == 3

    def test_global_registry_dump_matches_schema(self):
        with open(SCHEMA_PATH) as fh:
            schema = json.load(fh)
        text = to_jsonl(REGISTRY)
        n = validate_jsonl(text.splitlines(), schema)
        assert n == len(text.splitlines())

    def test_validate_schema_rejects_bad_records(self):
        with open(SCHEMA_PATH) as fh:
            schema = json.load(fh)
        validate_schema(
            {"name": "a", "type": "counter", "labels": {}, "value": 1.0},
            schema,
        )
        with pytest.raises(ValueError, match="missing required"):
            validate_schema({"name": "a", "type": "counter"}, schema)
        with pytest.raises(ValueError, match="enum"):
            validate_schema(
                {"name": "a", "type": "summary", "labels": {}}, schema
            )
        with pytest.raises(ValueError, match="unexpected key"):
            validate_schema(
                {"name": "a", "type": "gauge", "labels": {}, "bogus": 1},
                schema,
            )

    def test_render_table_lists_every_series(self):
        reg = self._populated()
        text = render_table(reg)
        assert "req_total" in text
        assert "backend=m" in text
        assert "lat_seconds" in text
        assert text.splitlines()[0].startswith("metric")


# ---------------------------------------------------------------------- #
# structured storage logs
# ---------------------------------------------------------------------- #


class TestStorageLogging:
    @staticmethod
    def _crashing_workload(path, fs):
        """Multi-transaction workload crashed mid-flight; a small page
        cache forces evictions through the WAL so committed frames are
        pending transfer at many crash points."""
        from repro.storage.minidb import MiniDatabase

        db = MiniDatabase(path, cache_pages=3, fs=fs)
        with db.transaction():
            t = db.create_table("events", 16)
            for i in range(50):
                t.insert(tuple(float(i * 10 + c) for c in range(16)))
            t.create_index("by_key", (0, 1))
        for batch in range(1, 4):
            with db.transaction():
                t = db.table("events")
                for i in range(batch * 50, (batch + 1) * 50):
                    t.insert_indexed(
                        tuple(float(i * 10 + c) for c in range(16))
                    )
        db.close()

    def test_wal_replay_emits_info_record(self, tmp_path, caplog):
        from functools import partial

        from repro.storage.faults import FaultInjected
        from repro.storage.minidb import MiniDatabase

        from .crashmatrix import crash_at, fault_points

        # crash the workload at every 7th write op; at least one crash
        # point must land between a WAL commit and its transfer, making
        # the subsequent reopen replay (and log) the committed frames
        workload = self._crashing_workload
        points = fault_points(
            partial(workload, str(tmp_path / "count.mdb")), stride=7, start=5
        )
        saw_replay = False
        with caplog.at_level(logging.INFO, logger="repro.storage"):
            for k in points:
                path = str(tmp_path / f"w{k}.mdb")
                fault = crash_at(partial(workload, path), k)
                assert isinstance(fault, FaultInjected), k
                MiniDatabase(path).close()
                if any(
                    "WAL replay" in r.message and r.name == "repro.storage"
                    for r in caplog.records
                ):
                    saw_replay = True
                    break
        assert saw_replay, "no crash point produced a logged WAL replay"

    def test_checksum_failure_emits_error_record(self, tmp_path, caplog):
        from repro.errors import CorruptionError
        from repro.storage.minidb import PAGE_SIZE, MiniDatabase

        path = str(tmp_path / "c.mdb")
        with MiniDatabase(path) as db:
            t = db.create_table("t", 4)
            for i in range(200):
                t.insert((float(i), 1.0, 2.0, 3.0))
        with open(path, "r+b") as fh:
            fh.seek(PAGE_SIZE + 100)
            byte = fh.read(1)[0]
            fh.seek(PAGE_SIZE + 100)
            fh.write(bytes([byte ^ 0x01]))
        db = MiniDatabase(path)
        try:
            with caplog.at_level(logging.ERROR, logger="repro.storage"):
                with pytest.raises(CorruptionError):
                    list(db.table("t").scan())
        finally:
            db.close()
        assert any(
            "checksum" in r.message.lower() and r.levelno == logging.ERROR
            for r in caplog.records
        )

    def test_checksum_failure_bumps_counter(self, tmp_path):
        from repro.errors import CorruptionError
        from repro.storage.minidb import PAGE_SIZE, MiniDatabase

        counter = REGISTRY.counter("repro_minidb_checksum_failures_total")
        before = counter.value
        path = str(tmp_path / "c2.mdb")
        with MiniDatabase(path) as db:
            t = db.create_table("t", 4)
            for i in range(200):
                t.insert((float(i), 1.0, 2.0, 3.0))
        with open(path, "r+b") as fh:
            fh.seek(PAGE_SIZE + 7)
            byte = fh.read(1)[0]
            fh.seek(PAGE_SIZE + 7)
            fh.write(bytes([byte ^ 0x01]))
        db = MiniDatabase(path)
        try:
            with pytest.raises(CorruptionError):
                list(db.table("t").scan())
        finally:
            db.close()
        assert counter.value > before


# ---------------------------------------------------------------------- #
# end-to-end: the pipeline actually feeds the registry
# ---------------------------------------------------------------------- #


class TestPipelineMetrics:
    def test_build_and_search_populate_registry(self):
        from repro.core.index import SegDiffIndex
        from repro.datagen import CADConfig, CADTransectGenerator

        segs = REGISTRY.counter("repro_segmenter_segments_total")
        pairs = REGISTRY.counter("repro_extractor_pairs_total")
        queries = REGISTRY.counter(
            "repro_engine_queries_total", labels={"api": "search"}
        )
        fetched = REGISTRY.counter(
            "repro_engine_rows_fetched_total",
            labels={"operator": "point_range"},
        )
        episode = REGISTRY.histogram("repro_build_episode_seconds")
        b_segs, b_pairs = segs.value, pairs.value
        b_queries, b_fetched = queries.value, fetched.value
        b_episodes = episode.count

        series = CADTransectGenerator(CADConfig(days=2, n_sensors=1)).generate(0)
        index = SegDiffIndex.build(series, epsilon=0.2, window=8 * 3600.0)
        try:
            found = index.search_drops(3600.0, -3.0)
        finally:
            index.close()
        assert segs.value > b_segs
        assert pairs.value > b_pairs
        assert queries.value == b_queries + 1
        assert fetched.value >= b_fetched + len(found)
        assert episode.count == b_episodes + 1

    def test_parallel_build_records_per_episode_timings(self, tmp_path):
        import numpy as np

        from repro.core.index import SegDiffIndex
        from repro.datagen import CADConfig, CADTransectGenerator, TimeSeries

        episode = REGISTRY.histogram("repro_build_episode_seconds")
        before = episode.count
        parts_t, parts_v = [], []
        offset = 0.0
        for k in range(3):
            chunk = CADTransectGenerator(
                CADConfig(days=1, n_sensors=1, seed=k)
            ).generate(0)
            t = np.asarray(chunk.times, dtype=float) + offset
            parts_t.append(t)
            parts_v.append(np.asarray(chunk.values, dtype=float))
            offset = float(t[-1]) + 86400.0
        series = TimeSeries(
            np.concatenate(parts_t), np.concatenate(parts_v)
        )
        index = SegDiffIndex.build(
            series, epsilon=0.2, window=3600.0, max_gap=7200.0
        )
        index.close()
        assert episode.count == before + 3  # one observation per episode

    def test_overhead_guard_counter_hot_path(self):
        """An inc() must stay cheap enough to be always-on: a million
        increments in well under a second on any CI box."""
        reg = MetricsRegistry()
        c = reg.counter("hot_total")
        t0 = time.perf_counter()
        for _ in range(1_000_000):
            c.inc()
        elapsed = time.perf_counter() - t0
        assert c.value == 1_000_000
        assert elapsed < 5.0  # ~0.2-0.4s typical; generous for slow CI

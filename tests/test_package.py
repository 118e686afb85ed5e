"""Public API surface tests: everything advertised is importable and sane."""

import importlib
import importlib.util
import inspect
import os
import pathlib

import pytest

import repro


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.core.feature_space",
            "repro.core.parallelogram",
            "repro.core.corners",
            "repro.core.extraction",
            "repro.core.queries",
            "repro.core.index",
            "repro.core.results",
            "repro.core.reporting",
            "repro.core.guarantees",
            "repro.core.tiered",
            "repro.core.transect",
            "repro.datagen",
            "repro.engine.cost",
            "repro.segmentation",
            "repro.storage",
            "repro.storage.minidb",
            "repro.baselines",
            "repro.workloads",
            "repro.experiments",
            "repro.cli",
        ],
    )
    def test_submodules_import(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__, f"{module} must have a module docstring"

    def test_subpackage_all_names_resolve(self):
        for module_name in (
            "repro.core",
            "repro.datagen",
            "repro.segmentation",
            "repro.storage",
            "repro.baselines",
            "repro.workloads",
        ):
            mod = importlib.import_module(module_name)
            for name in getattr(mod, "__all__", []):
                assert hasattr(mod, name), f"{module_name}.{name} missing"

    def test_public_classes_documented(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if isinstance(obj, type):
                assert obj.__doc__, f"repro.{name} lacks a docstring"

    def test_quickstart_snippet_from_readme(self):
        """The README's quickstart must keep working verbatim."""
        from repro import SegDiffIndex
        from repro.datagen import generate_cad_day

        series, _truth = generate_cad_day()
        index = SegDiffIndex.build(series, epsilon=0.2, window=8 * 3600)
        pairs = index.search_drops(t_threshold=3600, v_threshold=-3.0)
        assert isinstance(pairs, list)
        index.close()


class TestOneReadContract:
    """Structural guard: ``(m, k)`` blocks are the only way rows leave a
    store — no scalar twin, selection knob or alias module may return."""

    ARRAY = {
        "scan_points_array", "probe_point_index_array",
        "scan_lines_array", "probe_line_index_array",
    }
    SCALAR = {
        "scan_points", "probe_point_index", "scan_lines", "probe_line_index",
    }

    def test_block_primitives_are_the_abstract_read_surface(self):
        from repro.storage.base import FeatureStore

        assert self.ARRAY <= FeatureStore.__abstractmethods__
        assert not self.SCALAR & FeatureStore.__abstractmethods__
        assert not any(hasattr(FeatureStore, name) for name in self.SCALAR)

    def test_no_vectorize_parameter(self):
        from repro.core.live import LiveSnapshot
        from repro.engine import QuerySession, executor

        for fn in (
            executor.execute,
            executor.execute_batch,
            executor.execute_partitioned,
            executor.execute_batch_partitioned,
            QuerySession.__init__,
            LiveSnapshot.execute,
            LiveSnapshot.search_batch_results,
        ):
            assert "vectorize" not in inspect.signature(fn).parameters, fn

    def test_planner_alias_module_is_gone(self):
        assert importlib.util.find_spec("repro.core.planner") is None


class TestOneScatterOneEnvelope:
    """Structural guard: a shard is a partition — one scatter loop, one
    gather verdict, one query envelope; no second copy may return."""

    SRC = pathlib.Path(repro.__file__).parent

    def _lines_with(self, needle):
        return [
            (path.relative_to(self.SRC).as_posix(), line.strip())
            for path in sorted(self.SRC.rglob("*.py"))
            for line in path.read_text(encoding="utf-8").splitlines()
            if needle in line
        ]

    def test_gather_is_the_only_merge(self):
        calls = [
            hit for hit in self._lines_with("_union_dedup_rows(")
            if not hit[1].startswith("def ")
        ]
        assert {path for path, _ in calls} == {"engine/executor.py"}
        # execute, execute's timeout handler, and the gather
        assert len(calls) == 3
        from repro.engine import executor

        for fn in (executor.execute_partitioned,
                   executor.execute_batch_partitioned):
            assert "_union_dedup_rows" not in inspect.getsource(fn)
        assert "_union_dedup_rows" in inspect.getsource(executor._gather)

    def test_the_copies_stay_deleted(self):
        from repro.core.live import LiveSnapshot
        from repro.engine import QuerySession, ShardedIndex

        for cls, names in (
            (ShardedIndex, ("_merge", "_shard_call")),
            (LiveSnapshot, ("_begin", "_observe_live", "_make_plan")),
            (QuerySession, ("_begin_query", "_observe_query",
                            "_finish_query")),
        ):
            for name in names:
                assert not hasattr(cls, name), f"{cls.__name__}.{name}"

    def test_the_scatter_runs_inline(self):
        from repro.engine import executor
        from repro.obs.context import QueryContext

        imports = [
            hit for hit in self._lines_with("concurrent")
            if hit[1].startswith(("import concurrent", "from concurrent"))
        ]
        assert imports == []
        assert "pool" not in inspect.signature(executor._scatter).parameters
        assert not hasattr(QueryContext, "handoff")

    def test_one_slow_query_record_one_metric_family(self):
        # declared as a recorder category, recorded only by the envelope
        assert {path for path, _ in self._lines_with('"slow_query"')} == {
            "obs/recorder.py", "engine/session.py",
        }
        registered = {
            path
            for path, _ in self._lines_with('"repro_engine_queries_total"')
        }
        assert registered == {"engine/session.py"}


class TestOneDurabilityKernel:
    """Structural guard: one file facade, one framed log, one install and
    one injector (``repro.storage.durable`` / ``storage.faults``) — no
    second fsync, rename, CRC framing or fault dispatch may return."""

    SRC = pathlib.Path(repro.__file__).parent
    KERNEL = {"storage/durable.py", "storage/faults.py"}

    def _files_with(self, needle):
        return {
            path.relative_to(self.SRC).as_posix()
            for path in sorted(self.SRC.rglob("*.py"))
            if needle in path.read_text(encoding="utf-8")
        }

    def test_fsync_and_replace_only_in_the_kernel(self):
        for needle in ("os.fsync(", "os.replace(", "FaultInjected"):
            assert self._files_with(needle) <= self.KERNEL, needle

    def test_logs_frame_through_the_kernel(self):
        crc = self._files_with("zlib.crc32")
        assert not crc & {"storage/livewal.py", "storage/minidb/wal.py"}

    def test_the_old_hooks_stay_deleted(self):
        for needle in ("opener", "class FaultyFS", "_fsync_fh",
                       "def _fsync", "_default_opener"):
            assert not self._files_with(needle), needle
        assert not self._files_with('"repro_minidb_checksum_failures_total"'
                                    ) - {"storage/minidb/pager.py"}

    def test_no_durability_knobs(self):
        from repro.storage.minidb import (
            MiniDatabase,
            MiniDbFeatureStore,
            Pager,
        )

        for cls in (Pager, MiniDatabase, MiniDbFeatureStore):
            params = inspect.signature(cls.__init__).parameters
            assert not {"checksums", "wal", "opener"} & set(params), cls
            assert "fsync" in params, cls

    def test_one_atomic_install(self):
        from repro.storage import durable, livewal, partitions

        assert "atomic_replace" in inspect.getsource(partitions.install_json)
        assert "atomic_replace" in inspect.getsource(livewal.LiveWAL.rewrite)
        # the directory fsync is part of the install, not of its callers
        assert "fsync_dir" in inspect.getsource(durable.atomic_replace)
        assert self._files_with("fsync_dir(") == self.KERNEL
        assert issubclass(durable.FaultInjected, BaseException)
        assert not issubclass(durable.FaultInjected, Exception)


class TestWriteOnceSeal:
    """Structural guard: a sealed MiniDB partition is written once,
    without a page WAL, through the engine's own page encoders — no
    second heap, catalog or CRC layout may appear."""

    SRC = pathlib.Path(repro.__file__).parent
    MINIDB = SRC / "storage" / "minidb"

    def _files_with(self, needle):
        return {
            path.relative_to(self.SRC).as_posix()
            for path in sorted(self.SRC.rglob("*.py"))
            if needle in path.read_text(encoding="utf-8")
        }

    def test_page_layouts_are_defined_once(self):
        assert self._files_with('struct.Struct("<ii")') == {
            "storage/minidb/heapfile.py"
        }
        assert self._files_with('struct.Struct("<8sii")') == {
            "storage/minidb/database.py"
        }
        assert self._files_with("zlib.crc32(bytes(buf[:PAGE_CAPACITY]))") \
            == {"storage/minidb/pager.py"}
        database = (self.MINIDB / "database.py").read_text(encoding="utf-8")
        assert database.count("_HEAD.pack_into(") == 1  # encode_catalog
        sealed = (self.MINIDB / "sealed.py").read_text(encoding="utf-8")
        for needle in ("struct", "pack_into", "crc32", "tobytes", "Pager(",
                       "WriteAheadLog", "transaction("):
            assert needle not in sealed, needle

    def test_the_seal_opens_no_page_wal(self, tmp_path):
        import numpy as np

        from repro.core.live import LiveIndex
        from repro.storage.faults import FaultInjector

        rng = np.random.default_rng(1)
        ts = np.cumsum(rng.uniform(0.5, 3.0, 300))
        vs = np.cumsum(rng.normal(0.0, 1.0, 300))
        d = str(tmp_path / "live.d")
        inj = FaultInjector()
        live = LiveIndex(0.8, 300.0, directory=d, backend="minidb",
                         seal_rows=10**9, _fs=inj)
        try:
            for half in (slice(0, 150), slice(150, 300)):
                live.append_array(ts[half], vs[half])
                live.seal()
            assert live.compact(max_rows=10**9, min_run=2) == 1
        finally:
            live.close()
            inj.close_all()
        written = {os.path.basename(p) for op, p in inj.op_log
                   if op == "write" and p.endswith(".minidb")}
        assert written == {"p000000.minidb", "p000001.minidb",
                           "p000002.minidb"}
        assert not any(".minidb.wal" in p for _op, p in inj.op_log)
        assert not any(f.endswith(".wal") and f != "hot.wal"
                       for f in os.listdir(d))


class TestOneStreamWriter:
    """Structural guard: the batch and live indexes share one write path
    (``repro.core.stream``) — no second segmenter, extractor or re-prime,
    and no process-pool build, may return."""

    CORE = pathlib.Path(repro.__file__).parent / "core"

    def _files_with(self, needle):
        return {
            path.name
            for path in sorted(self.CORE.rglob("*.py"))
            if needle in path.read_text(encoding="utf-8")
        }

    def test_segmenter_and_extractor_built_only_by_the_writer(self):
        for needle in ("SlidingWindowSegmenter(", "FeatureExtractor("):
            assert self._files_with(needle) == {"stream.py"}, needle

    def test_reprime_lives_only_in_the_writer(self):
        calls = self._files_with(".prime_history(")
        assert calls == {"stream.py"}

    def test_no_process_pool_build(self, capsys):
        from repro.cli import build_parser
        from repro.core.index import SegDiffIndex

        assert not self._files_with("ProcessPoolExecutor")
        assert "workers" not in inspect.signature(SegDiffIndex.build).parameters
        assert not hasattr(SegDiffIndex, "ingest_parallel")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["build", "--help"])
        assert "--workers" not in capsys.readouterr().out


class TestOneCollection:
    """Structural guard: a transect is a ``ShardedIndex`` and a tier ladder
    is one router — no second multi-sensor collection or ε router may
    return."""

    SRC = pathlib.Path(repro.__file__).parent

    def test_no_transect_index(self):
        import repro.core

        assert "TransectIndex" not in repro.__all__
        assert "TransectIndex" not in repro.core.__all__

    def test_corroboration_imports_no_index(self):
        import ast

        tree = ast.parse((self.SRC / "core" / "transect.py").read_text(
            encoding="utf-8"
        ))
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        assert not imported & {"SegDiffIndex", "ShardedIndex"}

    def test_one_tier_router(self):
        defs = [
            path for path in self.SRC.rglob("*.py")
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip().startswith("def choose_tier(")
        ]
        assert len(defs) == 1


class TestNoServingPolicy:
    """The query path keeps per-query deadlines and nothing else of a
    serving tier: no admission control, circuit breaker, degraded
    refine, or live tier ladder."""

    DELETED = (
        "AdmissionController", "CircuitBreaker", "ResiliencePolicy",
        "QueryCancelled", "QueryRejected", "CircuitOpenError",
        "LiveTieredIndex",
    )
    SRC = pathlib.Path(repro.__file__).parent

    def test_deleted_names_are_not_exported(self):
        import repro.core
        import repro.engine
        import repro.errors

        for module in (repro, repro.core, repro.engine):
            assert not set(self.DELETED) & set(module.__all__), module
        for module in (repro.engine.resilience, repro.errors):
            for name in self.DELETED:
                assert not hasattr(module, name), (module, name)

    def test_no_policy_parameters(self):
        from repro.core.index import SegDiffIndex
        from repro.core.tiered import TieredIndex
        from repro.engine import QuerySession, ShardedIndex

        constructors = [
            QuerySession, SegDiffIndex, SegDiffIndex.build, SegDiffIndex.open,
            TieredIndex, TieredIndex.build, ShardedIndex.build,
            ShardedIndex.build_transect, ShardedIndex.open,
        ]
        for fn in constructors:
            params = inspect.signature(fn).parameters
            assert not {"resilience", "name"} & set(params), fn
        for cls in (QuerySession, SegDiffIndex, TieredIndex, ShardedIndex):
            for attr in dir(cls):
                if attr.startswith("search"):
                    params = inspect.signature(getattr(cls, attr)).parameters
                    assert "degrade" not in params, (cls, attr)

    def test_deepest_drops_takes_the_per_query_timeout(self):
        from repro.core.index import SegDiffIndex

        params = inspect.signature(SegDiffIndex.search_deepest_drops).parameters
        assert "timeout_ms" in params

    def test_cli_search_has_only_the_deadline_flag(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["search", "--help"])
        out = capsys.readouterr().out
        assert "--timeout-ms" in out
        assert "--degrade" not in out
        assert "--max-concurrency" not in out

    def test_no_serving_metrics_or_recorder_categories(self):
        import json

        from repro.obs.metrics import REGISTRY
        from repro.obs.recorder import CATEGORIES

        for metric in ("repro_breaker_state", "repro_queries_shed_total"):
            assert not any(
                key.startswith(metric) for key in REGISTRY.snapshot()
            ), metric
        schema = json.loads(
            (self.SRC.parent.parent / "benchmarks" / "recorder.schema.json")
            .read_text(encoding="utf-8")
        )
        enum = schema["properties"]["category"]["enum"]
        assert list(CATEGORIES) == enum
        assert not {"breaker", "shed"} & set(CATEGORIES)


class TestOneEventRing:
    """The flight recorder is the one "what went wrong recently" buffer:
    slow queries and retained traces are events in it, keyed by
    ``query_id``; no second ring, threshold or trace switch returns."""

    DELETED = (
        "SLOW_QUERY_LOG", "SlowQueryRecord", "SlowQueryLog",
        "recent_traces", "retain_trace", "clear_traces",
    )
    SRC = pathlib.Path(repro.__file__).parent

    def test_no_slowlog_module(self):
        assert importlib.util.find_spec("repro.obs.slowlog") is None

    def test_deleted_names_are_not_exported(self):
        from repro import obs
        from repro.obs import tracing

        assert not set(self.DELETED) & set(obs.__all__)
        for module in (obs, tracing):
            for name in self.DELETED:
                assert not hasattr(module, name), (module, name)
        for name in ("retain", "recent_traces", "_traces"):
            assert not hasattr(tracing.TRACER, name), name

    def test_no_threshold_or_trace_parameters(self):
        from repro.engine import QuerySession
        from repro.engine.session import QueryEnvelope
        from repro.obs import QueryContext, Tracer, new_context

        for fn, gone in (
            (QuerySession, "slow_query_threshold"),
            (QueryEnvelope, "threshold"),
            (QueryContext, "trace"),
            (new_context, "trace"),
            (Tracer, "max_traces"),
        ):
            assert gone not in inspect.signature(fn).parameters, fn

    def test_one_bounded_buffer(self):
        rings = [
            path.name for path in sorted((self.SRC / "obs").glob("*.py"))
            for line in path.read_text(encoding="utf-8").splitlines()
            if "deque(" in line
        ]
        assert rings == ["recorder.py"]

    def test_categories_and_fields_equal_the_schema(self):
        import json

        from repro.obs.recorder import CATEGORIES, EVENT_SCHEMA

        schema = json.loads(
            (self.SRC.parent.parent / "benchmarks" / "recorder.schema.json")
            .read_text(encoding="utf-8")
        )
        assert list(CATEGORIES) == schema["properties"]["category"]["enum"]
        assert {"slow_query", "trace"} <= set(CATEGORIES)
        assert EVENT_SCHEMA["required"] == schema["required"]
        assert "query_id" in schema["required"]
        for key, prop in EVENT_SCHEMA["properties"].items():
            assert prop["type"] == schema["properties"][key]["type"], key
        assert set(EVENT_SCHEMA["properties"]) == set(schema["properties"])


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
class TestEveryPublicMethodRuns:
    """Every public method of both collections returns without error —
    the check that would have caught a ladder whose inherited methods
    raised ``AttributeError``."""

    @staticmethod
    def public_methods(cls):
        return {
            name for name in dir(cls)
            if not name.startswith("_") and callable(getattr(cls, name))
        }

    def test_tiered_index(self, backend):
        from repro.core.tiered import TieredIndex
        from repro.datagen import random_walk_series

        hour = 3600.0
        series = random_walk_series(300, dt=300.0, step_std=0.8, seed=21)
        called = {"build"}
        tiered = TieredIndex.build(series, (0.1, 0.4), 8 * hour,
                                   backend=backend)
        try:
            calls = {
                "choose_tier": lambda: tiered.choose_tier(1.0),
                "tier": lambda: tiered.tier(0.4),
                "route": lambda: tiered.route(1.0),
                "search_drops": lambda: tiered.search_drops(hour, -2.0, 1.0),
                "search_jumps": lambda: tiered.search_jumps(hour, 2.0, 1.0),
                "search_outcome": lambda: tiered.search_outcome(
                    "drop", hour, -2.0, max_tolerance=1.0, timeout_ms=60_000.0
                ),
                "stats": tiered.stats,
                "total_disk_bytes": tiered.total_disk_bytes,
            }
            for name, call in calls.items():
                call()
                called.add(name)
            assert tiered.search_outcome("drop", hour, -2.0).pairs == (
                tiered.search_drops(hour, -2.0)
            )
        finally:
            tiered.close()
        called.add("close")
        assert called == self.public_methods(TieredIndex)

    def test_sharded_index(self, backend, tmp_path):
        from repro.datagen import random_walk_series
        from repro.engine import ShardedIndex

        hour = 3600.0
        walk = random_walk_series(300, dt=300.0, step_std=0.8, seed=21)
        called = {"build"}
        ShardedIndex.build(
            walk, 0.2, 2 * hour, n_shards=2, max_gap=600.0, backend=backend,
        ).close()
        d = str(tmp_path)
        sharded = ShardedIndex.build_transect(
            {"a": walk, "b": walk}, 0.2, 2 * hour, replicas=2,
            backend=backend, directory=d,
        )
        called.add("build_transect")
        expected = self.public_methods(ShardedIndex)
        if backend == "memory":
            # file-only: a memory build has no replica files to name
            expected -= {"open", "save_manifest"}
        else:
            sharded.save_manifest(d)
            called.add("save_manifest")
            sharded.close()
            sharded = ShardedIndex.open(d)
            called.add("open")
        try:
            calls = {
                "route": lambda: sharded.route(sensors=["a"]),
                "shard": lambda: sharded.shard("b"),
                "search_drops": lambda: sharded.search_drops(hour, -2.0),
                "search_jumps": lambda: sharded.search_jumps(hour, 2.0),
                "search_outcome": lambda: sharded.search_outcome(
                    "drop", hour, -2.0, timeout_ms=60_000.0
                ),
                "search_corroborated": lambda: sharded.search_corroborated(
                    hour, -2.0
                ),
                "verify": sharded.verify,
                "repair": sharded.repair,
                "stats": sharded.stats,
            }
            for name, call in calls.items():
                call()
                called.add(name)
            assert sharded.verify().clean
        finally:
            sharded.close()
        called.add("close")
        assert called == expected

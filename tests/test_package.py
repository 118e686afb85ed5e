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

    def test_one_slow_query_record_one_metric_family(self):
        built = [
            path for path, _ in self._lines_with("SlowQueryRecord(")
            if path != "obs/slowlog.py"
        ]
        assert built == ["engine/session.py"]
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
        from repro.core.tiered import LiveTieredIndex, TieredIndex

        defs = [
            path for path in self.SRC.rglob("*.py")
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip().startswith("def choose_tier(")
        ]
        assert len(defs) == 1
        assert issubclass(LiveTieredIndex, TieredIndex)
        for name in ("choose_tier", "tier", "search_drops", "search_jumps",
                     "stats", "close"):
            assert name not in vars(LiveTieredIndex), name

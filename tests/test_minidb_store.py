"""Tests for the MiniDB feature-store backend (equivalence + page costs)."""

import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.index import SegDiffIndex
from repro.core.live import LiveIndex
from repro.core.queries import DropQuery, JumpQuery
from repro.datagen import TimeSeries, random_walk_series
from repro.engine.cost import CostModel
from repro.errors import InvalidParameterError, StorageError
from repro.storage.minidb import MiniDbFeatureStore
from repro.storage.minidb.heapfile import HeapFile

from .oracle import oracle_pairs, walk_extreme_feature_dv, walk_sample_points

HOUR = 3600.0


@pytest.fixture(scope="module")
def pair_of_indexes():
    series = random_walk_series(300, dt=300.0, step_std=0.8, seed=17)
    # pool large enough to hold the whole working set, so the warm-cache
    # test measures caching rather than LRU thrash on sequential scans
    store = MiniDbFeatureStore(cache_pages=8192)
    mini = SegDiffIndex(0.2, 8 * HOUR, store)
    mini.ingest(series)
    mini.finalize()
    mem = SegDiffIndex.build(series, 0.2, 8 * HOUR, backend="memory")
    yield mini, mem, series
    mini.close()
    mem.close()


QUERIES = [
    (DropQuery(HOUR, -2.0)),
    (DropQuery(4 * HOUR, -0.5)),
    (DropQuery(0.5 * HOUR, -5.0)),
    (JumpQuery(HOUR, 2.0)),
    (JumpQuery(4 * HOUR, 0.5)),
]


class TestEquivalence:
    @pytest.mark.parametrize("query", QUERIES, ids=str)
    @pytest.mark.parametrize("mode", ["scan", "index"])
    @pytest.mark.parametrize("cache", ["warm", "cold"])
    def test_matches_memory_backend(self, pair_of_indexes, query, mode, cache):
        mini, mem, _series = pair_of_indexes
        expected = mem.store.search(query, mode="scan")
        got = mini.store.search(query, mode=mode, cache=cache)
        assert got == expected

    def test_counts_match(self, pair_of_indexes):
        mini, mem, _ = pair_of_indexes
        assert mini.store.counts() == mem.store.counts()

    def test_extremes_match(self, pair_of_indexes):
        mini, mem, _ = pair_of_indexes
        assert mini.store.extreme_feature_dv("drop") == pytest.approx(
            mem.store.extreme_feature_dv("drop")
        )
        assert mini.store.extreme_feature_dv("jump") == pytest.approx(
            mem.store.extreme_feature_dv("jump")
        )

    def test_sample_points(self, pair_of_indexes):
        mini, _mem, _ = pair_of_indexes
        sample = mini.store.sample_points("drop", 32)
        assert sample is not None and 1 <= len(sample) <= 32

    def test_topk_and_auto_work_on_minidb(self, pair_of_indexes):
        mini, _mem, series = pair_of_indexes
        hits = mini.search_deepest_drops(2, HOUR, data=series)
        assert len(hits) == 2
        auto = mini.search_drops(HOUR, -2.0, mode="auto")
        assert auto == mini.search_drops(HOUR, -2.0, mode="index")


class TestPageCosts:
    def test_query_stats_populated(self, pair_of_indexes):
        mini, _mem, _ = pair_of_indexes
        mini.store.search(DropQuery(HOUR, -2.0), mode="scan", cache="cold")
        stats = mini.store.last_query_stats
        assert stats is not None
        assert stats.page_reads > 0
        assert stats.misses > 0  # cold cache: everything missed

    def test_warm_cache_hits(self, pair_of_indexes):
        mini, _mem, _ = pair_of_indexes
        q = DropQuery(HOUR, -2.0)
        mini.store.search(q, mode="scan", cache="warm")  # prime
        mini.store.search(q, mode="scan", cache="warm")
        stats = mini.store.last_query_stats
        assert stats.hits > 0
        assert stats.disk_reads == 0  # fully cached

    def test_index_selective_query_reads_fewer_pages(self, pair_of_indexes):
        """A highly selective query must touch far fewer pages via the
        B+tree than via a full scan — the B-tree's raison d'etre."""
        mini, _mem, _ = pair_of_indexes
        q = DropQuery(0.25 * HOUR, -6.0)  # few or no results
        mini.store.search(q, mode="scan", cache="cold")
        scan_reads = mini.store.last_query_stats.page_reads
        mini.store.search(q, mode="index", cache="cold")
        index_reads = mini.store.last_query_stats.page_reads
        assert index_reads < scan_reads / 2

    def test_index_hard_query_pays_random_io(self, pair_of_indexes):
        """On a huge-result query the index fetches a heap page per match
        and loses to the scan — Figures 19-20 from first principles."""
        mini, _mem, _ = pair_of_indexes
        q = DropQuery(8 * HOUR, -0.01)
        mini.store.search(q, mode="scan", cache="cold")
        scan_reads = mini.store.last_query_stats.page_reads
        mini.store.search(q, mode="index", cache="cold")
        index_reads = mini.store.last_query_stats.page_reads
        assert index_reads > scan_reads


class TestLifecycle:
    def test_persistence_roundtrip(self, tmp_path):
        series = random_walk_series(150, dt=300.0, step_std=0.8, seed=9)
        path = str(tmp_path / "walk.mdb")
        index = SegDiffIndex.build(
            series, 0.2, 4 * HOUR, backend="minidb", path=path
        )
        expected = index.search_drops(HOUR, -2.0)
        index.close()
        assert os.path.exists(path)

        store = MiniDbFeatureStore(path)
        try:
            assert store.get_meta("epsilon") == 0.2
            got = store.search(DropQuery(HOUR, -2.0))
            assert got == expected
            assert store.load_segments()
        finally:
            store.close()

    def test_tempfile_removed_on_close(self):
        store = MiniDbFeatureStore()
        path = store.path
        assert os.path.exists(path)
        store.close()
        assert not os.path.exists(path)

    def test_stale_index_rejected(self):
        from repro.core.corners import collect_features
        from repro.core.parallelogram import Parallelogram
        from repro.types import DataSegment

        store = MiniDbFeatureStore()
        try:
            fs = collect_features(
                Parallelogram.self_pair(DataSegment(0, 5, 10, -5)), 0.1
            )
            store.add(fs)
            with pytest.raises(StorageError, match="stale|missing"):
                store.search(DropQuery(5.0, -1.0), mode="index")
            assert store.search(DropQuery(5.0, -1.0), mode="scan")
            store.finalize()
            assert store.search(DropQuery(5.0, -1.0), mode="index")
        finally:
            store.close()

    def test_invalid_modes_rejected(self, pair_of_indexes):
        mini, _mem, _ = pair_of_indexes
        with pytest.raises(InvalidParameterError):
            mini.store.search(QUERIES[0], mode="grid")
        with pytest.raises(InvalidParameterError):
            mini.store.search(QUERIES[0], cache="tepid")

    def test_closed_store_unusable(self):
        store = MiniDbFeatureStore()
        store.close()
        with pytest.raises(StorageError):
            store.counts()


@given(
    seed=st.integers(min_value=0, max_value=5000),
    v_thr=st.floats(min_value=-6.0, max_value=-0.5),
    t_minutes=st.integers(min_value=10, max_value=200),
)
@settings(max_examples=10, deadline=None)
def test_minidb_equivalence_property(seed, v_thr, t_minutes):
    """MiniDB agrees with the memory backend on random walks."""
    import numpy as np

    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.uniform(120.0, 600.0, size=60))
    v = np.cumsum(rng.normal(0.0, 1.5, size=60))
    series = TimeSeries(t, v)
    mini = SegDiffIndex.build(series, 0.3, 4 * HOUR, backend="minidb")
    mem = SegDiffIndex.build(series, 0.3, 4 * HOUR, backend="memory")
    try:
        t_thr = t_minutes * 60.0
        assert mini.search_drops(t_thr, v_thr) == mem.search_drops(t_thr, v_thr)
    finally:
        mini.close()
        mem.close()


# ---------------------------------------------------------------------- #
# planner and top-k reads through the columnar view
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def planner_files(tmp_path_factory):
    """A batch MiniDB file (heap in insertion order, B+tree) and a live
    directory of sealed, clustered MiniDB partitions over one series."""
    d = tmp_path_factory.mktemp("planner")
    series = random_walk_series(1500, dt=300.0, step_std=0.4, seed=5)
    batch = str(d / "batch.mdb")
    SegDiffIndex.build(series, 0.2, 8 * HOUR, backend="minidb",
                       path=batch).close()
    live_dir = str(d / "live.d")
    live = LiveIndex(0.2, 8 * HOUR, directory=live_dir, backend="minidb",
                     seal_rows=4000)
    for lo in range(0, 1500, 100):
        live.append_array(series.times[lo:lo + 100],
                          series.values[lo:lo + 100])
    live.finalize()
    live.close()
    parts = sorted(os.path.join(live_dir, f) for f in os.listdir(live_dir)
                   if f.endswith(".minidb"))
    assert len(parts) >= 3
    return batch, live_dir, parts


@pytest.fixture()
def planner_stores(planner_files):
    batch, _live_dir, parts = planner_files
    stores = [MiniDbFeatureStore(path) for path in [batch] + parts]
    assert not stores[0].db.table("drop_points").clustered
    assert all(s.db.table("drop_points").clustered for s in stores[1:])
    yield stores
    for store in stores:
        store.close()


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


class _WalkSampled:
    """A store whose planner sample is the row-at-a-time walk."""

    BACKEND = "minidb"

    def __init__(self, store):
        self.store = store

    def sample_points(self, kind, n):
        return walk_sample_points(self.store, kind, n)

    def counts(self):
        return self.store.counts()


#: A Q120-style lattice: T over [300 s, w] × |V| over [0.5, 12].
LATTICE = [
    query(t, sign * v)
    for query, sign in ((DropQuery, -1.0), (JumpQuery, 1.0))
    for t in np.linspace(300.0, 8 * HOUR, 10)
    for v in np.geomspace(0.5, 12.0, 6)
]


class TestColumnarPlannerReads:
    """``sample_points`` and ``extreme_feature_dv`` slice the columnar
    view's block instead of walking the heap a row at a time; their
    answers are the walk's, bit for bit."""

    @pytest.mark.parametrize("n", [1, 7, 512, "rows", 10**6])
    def test_sample_is_the_row_walk(self, planner_stores, n):
        strided = 0
        for store in planner_stores:
            for kind in ("drop", "jump"):
                rows = store.db.table(f"{kind}_points").n_rows
                size = rows if n == "rows" else n
                got = store.sample_points(kind, size)
                assert _same_bits(got, walk_sample_points(store, kind, size))
                assert got.shape == (min(size, rows), 2)
                strided += rows // size > 1
        if n in (1, 7, 512):
            assert strided  # some table is sampled with a step above 1

    def test_extreme_is_the_row_walk(self, planner_stores):
        for store in planner_stores:
            for kind in ("drop", "jump"):
                got = store.extreme_feature_dv(kind)
                want = walk_extreme_feature_dv(store, kind)
                assert type(got) is float
                assert struct.pack("<d", got) == struct.pack("<d", want)

    def test_empty_table(self, tmp_path):
        with MiniDbFeatureStore(str(tmp_path / "empty.mdb")) as store:
            for kind in ("drop", "jump"):
                assert store.sample_points(kind, 512) is None
                assert walk_sample_points(store, kind, 512) is None
                assert store.extreme_feature_dv(kind) is None

    def test_plans_are_unchanged(self, planner_stores):
        for store in planner_stores:
            view, walk = CostModel(store), CostModel(_WalkSampled(store))
            for query in LATTICE:
                assert view.plan(query) == walk.plan(query)

    def test_sample_charges_one_read_per_chain_page(self, planner_stores):
        for store in planner_stores:
            pages = store.db.table("drop_points").heap_pages()
            for _ in range(2):  # the block's build, then a cached serve
                before = store.pager_stats().snapshot()
                store.sample_points("drop", 512)
                assert store.pager_stats().delta(before).page_reads == pages

    def test_query_path_never_walks_rows(self, planner_files, monkeypatch):
        batch, live_dir, parts = planner_files
        drop, jump = DropQuery(HOUR, -1.0), JumpQuery(2 * HOUR, 1.0)
        stores = [MiniDbFeatureStore(path) for path in parts]
        try:
            want = {q: oracle_pairs(stores, q) for q in (drop, jump)}
        finally:
            for store in stores:
                store.close()
        assert all(want.values())

        def walk(self):
            raise AssertionError("row-at-a-time heap walk on a query path")

        monkeypatch.setattr(HeapFile, "scan", walk)
        live = LiveIndex.open(live_dir)
        try:
            with live.snapshot() as snap:
                assert snap.n_partitions >= 3
                for query in (drop, jump):
                    outcome = snap.execute(query, mode="auto")
                    assert outcome.pairs == want[query]
        finally:
            live.close()
        with SegDiffIndex.open(batch) as index:
            assert index.search_drops(HOUR, -1.0, mode="auto") \
                == want[drop]
            assert index.search_deepest_drops(3, HOUR)
            assert index.store.extreme_feature_dv("jump") is not None

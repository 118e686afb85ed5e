"""The array-at-once seal path against its tuple-at-a-time oracles.

Equivalences and one exact cost:

* ``BPlusTree.bulk_load`` / ``Table.create_index`` (structured arrays,
  one ``lexsort``) write page-for-page the bytes the previous
  tuple-at-a-time build wrote — the old loop lives on below as the
  oracle;
* ``set_meta_many`` ≡ a ``set_meta`` loop on every store, and on MiniDB
  it is exactly one catalog checkpoint;
* ``MiniDbFeatureStore.read_table_rows`` ≡ the base-class scan;
* a sealed (clustered, write-once) MiniDB partition: writing it costs
  each of its pages once, and a crash at any of those writes leaves the
  previous generation or the partition sealed with its checksum trees —
  never in between; compacting partitions gives the bytes of one seal
  of the same stream; reading it never changes it; and its prefix probe
  ≡ the row-by-row §4.4 oracle, warm and cold.
"""

import hashlib
import os
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.live import LiveIndex
from repro.core.queries import line_match, point_match
from repro.errors import InvalidParameterError, StorageError
from repro.storage.base import FeatureStore
from repro.storage.faults import FaultInjected, FaultInjector
from repro.storage.memory_store import MemoryFeatureStore
from repro.storage.minidb import (
    PAGE_SIZE,
    BPlusTree,
    MiniDatabase,
    MiniDbFeatureStore,
    Pager,
    RID,
)
from repro.storage.minidb.btree import _INT_HEADER, _LEAF_HEADER
from repro.storage.minidb.sealed import ClusteredSink
from repro.storage.sqlite_store import SqliteFeatureStore

from .crashmatrix import crash_at
from .oracle import oracle_pairs

# ---------------------------------------------------------------------- #
# the oracle: bulk_load as it was before the array path replaced it
# ---------------------------------------------------------------------- #


def oracle_bulk_load(tree: BPlusTree, entries) -> int:
    """Tuple-at-a-time bottom-up build: pack every entry with one
    ``struct`` call, then re-read each leaf to patch its ``next_leaf``."""
    for a, b in zip(entries, entries[1:]):
        if a[0] > b[0]:
            raise InvalidParameterError("bulk_load requires sorted entries")

    leaf_ids, first_keys = [], []
    chunk = tree.leaf_fanout
    groups = [
        entries[i : i + chunk] for i in range(0, len(entries), chunk)
    ] or [[]]
    for group in groups:
        page = bytearray(PAGE_SIZE)
        _LEAF_HEADER.pack_into(page, 0, 1, len(group), -1)
        offset = _LEAF_HEADER.size
        for key, rid in group:
            tree._leaf_entry.pack_into(
                page, offset, *key, rid.page_id, rid.slot
            )
            offset += tree._leaf_entry.size
        page_id = tree.pager.allocate()
        tree.pager.write(page_id, bytes(page))
        leaf_ids.append(page_id)
        first_keys.append(tuple(group[0][0]) if group else ())
    for prev, nxt in zip(leaf_ids, leaf_ids[1:]):
        page = bytearray(tree.pager.read(prev))
        kind, n, _old_next = _LEAF_HEADER.unpack_from(page, 0)
        _LEAF_HEADER.pack_into(page, 0, kind, n, nxt)
        tree.pager.write(prev, bytes(page))

    child_ids, child_keys = leaf_ids, first_keys
    while len(child_ids) > 1:
        parent_ids, parent_keys = [], []
        chunk = tree.internal_fanout
        for i in range(0, len(child_ids), chunk):
            ids = child_ids[i : i + chunk]
            keys = child_keys[i : i + chunk]
            page = bytearray(PAGE_SIZE)
            _INT_HEADER.pack_into(page, 0, 0, len(ids) - 1, ids[0])
            offset = _INT_HEADER.size
            for key, child in zip(keys[1:], ids[1:]):
                tree._int_entry.pack_into(page, offset, *key, child)
                offset += tree._int_entry.size
            page_id = tree.pager.allocate()
            tree.pager.write(page_id, bytes(page))
            parent_ids.append(page_id)
            parent_keys.append(keys[0])
        child_ids, child_keys = parent_ids, parent_keys

    tree.root = child_ids[0]
    return tree.root


def oracle_create_index(table, name, key_cols):
    """``Table.create_index`` as it was: heap scan, ``sorted``, oracle."""
    cols = [int(c) for c in key_cols]
    entries = sorted(
        ((tuple(row[c] for c in cols), rid) for rid, row in table.scan()),
        key=lambda entry: entry[0],
    )
    tree = BPlusTree(table._db.pager, len(cols))
    oracle_bulk_load(tree, entries)
    table._indexes[name] = tree
    table._info["indexes"][name] = {
        "key_cols": cols, "root": tree.root, "n_entries": len(entries),
    }
    return tree


def file_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def fanouts(key_width: int):
    tree = BPlusTree(None, key_width)  # the arithmetic needs no pager
    return tree.leaf_fanout, tree.internal_fanout


def sorted_entries(keys: np.ndarray):
    """``(key, rid)`` pairs in ascending key order; rids are arbitrary
    but distinct so a wrong permutation shows in the bytes."""
    keys = keys[np.lexsort(keys.T[::-1])]
    return [
        (tuple(float(x) for x in key), RID(1000 + i // 7, i % 7))
        for i, key in enumerate(keys)
    ]


def build_both(tmp_path, key_width, entries, as_array):
    """Build the same entries by the array path and by the oracle, in
    two fresh page files; returns both files' bytes and roots."""
    out = []
    for name in ("new", "oracle"):
        path = str(tmp_path / f"{name}.pages")
        if os.path.exists(path):
            os.unlink(path)
        pager = Pager(path, cache_pages=8)
        tree = BPlusTree(pager, key_width)
        if name == "oracle":
            root = oracle_bulk_load(tree, entries)
        elif as_array:
            arr = np.array(
                [(k, r.page_id, r.slot) for k, r in entries],
                dtype=tree.entry_dtype,
            )
            root = tree.bulk_load(arr)
        else:
            root = tree.bulk_load(entries)
        pager.close()
        out.append((file_bytes(path), root))
    return out


# a small value pool makes duplicate keys (and the two zeros) common
KEY_VALUES = st.sampled_from(
    [-0.0, 0.0, 1.0, -1.0, 2.5, 300.0, 1e-300, -1e300, 7.0, 7.000000000000001]
)


class TestBulkLoadDifferential:
    @pytest.mark.parametrize("key_width", [2, 4])
    @pytest.mark.parametrize("as_array", [True, False])
    def test_boundary_sizes_are_byte_identical(
        self, tmp_path, key_width, as_array
    ):
        leaf, internal = fanouts(key_width)
        rng = np.random.default_rng(key_width)
        for n in (0, 1, leaf, leaf + 1, 3 * leaf + 7, leaf * internal + 1):
            # few distinct values per column: long runs of equal keys
            keys = rng.choice(
                np.array([-0.0, 0.0, 1.0, -2.0, 3.5]), size=(n, key_width)
            )
            (new, new_root), (old, old_root) = build_both(
                tmp_path, key_width, sorted_entries(keys), as_array
            )
            assert new_root == old_root, n
            assert len(new) == len(old), n
            for page in range(len(old) // PAGE_SIZE):
                lo = page * PAGE_SIZE
                assert new[lo : lo + PAGE_SIZE] == old[lo : lo + PAGE_SIZE], (
                    f"n={n}: page {page} differs"
                )

    def test_three_levels_reached(self, tmp_path):
        leaf, internal = fanouts(4)
        pager = Pager(str(tmp_path / "h.pages"), cache_pages=8)
        tree = BPlusTree(pager, 4)
        keys = np.arange(4.0 * (leaf * internal + 1)).reshape(-1, 4)
        tree.bulk_load(sorted_entries(keys))
        assert tree.height() == 3
        pager.close()

    @settings(max_examples=60, deadline=None)
    @given(
        key_width=st.sampled_from([2, 4]),
        flat=st.lists(KEY_VALUES, min_size=0, max_size=4 * 260),
        as_array=st.booleans(),
    )
    def test_random_keys_are_byte_identical(
        self, tmp_path_factory, key_width, flat, as_array
    ):
        n = len(flat) // key_width
        keys = np.array(flat[: n * key_width]).reshape(n, key_width)
        tmp = tmp_path_factory.mktemp("bulk")
        (new, new_root), (old, old_root) = build_both(
            tmp, key_width, sorted_entries(keys), as_array
        )
        assert new_root == old_root
        assert new == old

    @pytest.mark.parametrize(
        "keys",
        [
            [(2.0, 0.0), (1.0, 0.0)],  # leading column descends
            [(1.0, 2.0), (1.0, 1.0)],  # tie on the lead, second descends
            [(0.0, 0.0), (-0.0, 1.0), (0.0, 0.5)],  # zeros tie, then descends
        ],
    )
    @pytest.mark.parametrize("as_array", [True, False])
    def test_unsorted_input_rejected(self, tmp_path, keys, as_array):
        pager = Pager(str(tmp_path / "u.pages"), cache_pages=8)
        tree = BPlusTree(pager, 2)
        entries = [(k, RID(0, i)) for i, k in enumerate(keys)]
        with pytest.raises(InvalidParameterError):
            oracle_bulk_load(tree, entries)
        if as_array:
            entries = np.array(
                [(k, r.page_id, r.slot) for k, r in entries],
                dtype=tree.entry_dtype,
            )
        with pytest.raises(InvalidParameterError):
            tree.bulk_load(entries)
        pager.close()

    def test_equal_keys_with_signed_zeros_accepted(self, tmp_path):
        # -0.0 == 0.0: neither order of the two is "unsorted"
        pager = Pager(str(tmp_path / "z.pages"), cache_pages=8)
        tree = BPlusTree(pager, 2)
        tree.bulk_load(
            [((0.0, 1.0), RID(0, 0)), ((-0.0, 1.0), RID(0, 1)),
             ((0.0, 1.0), RID(0, 2))]
        )
        assert [r.slot for _k, r in tree.scan_from()] == [0, 1, 2]
        pager.close()


class TestCreateIndexDifferential:
    @settings(max_examples=40, deadline=None)
    @given(
        width_cols=st.sampled_from([(6, (0, 1)), (8, (0, 1, 2, 3))]),
        flat=st.lists(KEY_VALUES, min_size=0, max_size=8 * 150),
        batches=st.integers(1, 3),
    )
    def test_heap_to_index_is_byte_identical(
        self, tmp_path_factory, width_cols, flat, batches
    ):
        width, cols = width_cols
        n = len(flat) // width
        rows = np.array(flat[: n * width]).reshape(n, width)
        tmp = tmp_path_factory.mktemp("ci")
        files = []
        for name, build in (
            ("new", lambda t: t.create_index("by_key", cols)),
            ("oracle", lambda t: oracle_create_index(t, "by_key", cols)),
        ):
            path = str(tmp / f"{name}.mdb")
            # a 4-page pool: the build runs through evictions
            db = MiniDatabase(path, cache_pages=4)
            with db.transaction():
                table = db.create_table("t", width)
                # several appends leave the tail page topped up in steps
                for part in np.array_split(rows, batches):
                    table.insert_many(part)
                build(table)
            db.close()
            files.append(file_bytes(path))
        assert files[0] == files[1]

    def test_multi_page_heap_rids_resolve(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 50, size=(2000, 6)).astype(float)
        db = MiniDatabase(str(tmp_path / "r.mdb"), cache_pages=16)
        with db.transaction():
            table = db.create_table("t", 6)
            table.insert_many(rows)
            tree = table.create_index("by_key", (0, 1))
        assert table.heap_pages() > 1
        for key, rid in tree.scan_from():
            assert table.get(rid)[:2] == key
        assert db.check() == []
        db.close()


# ---------------------------------------------------------------------- #
# set_meta_many ≡ a set_meta loop
# ---------------------------------------------------------------------- #

META_ITEMS = {f"cks/drop_points/0/{i}": float(i * 7919 % 2**32)
              for i in range(50)}
META_ITEMS.update(epsilon=0.25, window=28800.0, sealed=1.0)


def _open_store(backend, path):
    if backend == "memory":
        return MemoryFeatureStore()
    if backend == "sqlite":
        return SqliteFeatureStore(path)
    return MiniDbFeatureStore(path)


class TestSetMetaMany:
    @pytest.mark.parametrize("backend", ["memory", "sqlite", "minidb"])
    def test_equals_a_set_meta_loop(self, tmp_path, backend):
        stores = {}
        for how in ("many", "loop"):
            path = str(tmp_path / f"{how}.{backend}")
            store = _open_store(backend, path)
            store.set_meta("epsilon", 9.0)  # overwritten below
            if how == "many":
                store.set_meta_many(META_ITEMS)
            else:
                for key, value in META_ITEMS.items():
                    store.set_meta(key, value)
            stores[how] = (store, path)
        for key in list(META_ITEMS) + ["absent"]:
            assert stores["many"][0].get_meta(key) == \
                stores["loop"][0].get_meta(key), key
        assert stores["many"][0].get_meta("epsilon") == 0.25
        for store, _path in stores.values():
            store.close()
        if backend == "memory":
            return
        for how, (_store, path) in stores.items():
            reopened = _open_store(backend, path)
            for key, value in META_ITEMS.items():
                assert reopened.get_meta(key) == value, (how, key)
            reopened.close()
        if backend == "minidb":
            # same keys in the same order: the same catalog, byte for byte
            assert file_bytes(stores["many"][1]) == \
                file_bytes(stores["loop"][1])

    def test_minidb_is_one_catalog_checkpoint(self, tmp_path):
        store = MiniDbFeatureStore(str(tmp_path / "c.minidb"))
        store.finalize()

        def writes(fn):
            before = store.pager_stats().disk_writes
            fn()
            return store.pager_stats().disk_writes - before

        many = writes(lambda: store.set_meta_many(META_ITEMS))
        # with every key present the catalog no longer grows: one more
        # checkpoint of it is the unit
        one = writes(lambda: store.set_meta("sealed", 0.0))
        loop = writes(lambda: [store.set_meta(k, v)
                               for k, v in META_ITEMS.items()])
        assert one > 0
        assert many == one
        assert loop == len(META_ITEMS) * one
        store.close()

    def test_sqlite_commits_buffered_rows_with_the_meta(self, tmp_path,
                                                        walk_series):
        from repro.core.index import SegDiffIndex

        path = str(tmp_path / "b.sqlite")
        index = SegDiffIndex(0.3, 4 * 3600.0, SqliteFeatureStore(path))
        index.ingest(walk_series)
        index.checkpoint()  # one set_meta_many: rows + meta, one commit
        expected = index.store.counts()
        other = SqliteFeatureStore(path)  # a second connection sees both
        assert other.counts() == expected
        assert other.get_meta("sealed") == 0.0
        assert other.get_meta("n_observations") is not None
        other.close()
        index.close()


# ---------------------------------------------------------------------- #
# MiniDB read_table_rows ≡ the base-class scan
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def minidb_index(tmp_path_factory):
    from repro.core.index import SegDiffIndex
    from repro.datagen import random_walk_series

    path = str(tmp_path_factory.mktemp("rt") / "i.minidb")
    index = SegDiffIndex.build(
        random_walk_series(400, dt=300.0, step_std=0.8, seed=11),
        0.3, 4 * 3600.0, backend="minidb", path=path,
    )
    yield index
    index.close()


class TestReadTableRows:
    @settings(max_examples=60, deadline=None)
    @given(
        table=st.sampled_from(
            ["drop_points", "drop_lines", "jump_points", "jump_lines"]
        ),
        start=st.integers(-50, 4000),
        stop=st.one_of(st.none(), st.integers(-50, 4000)),
    )
    def test_matches_base_scan(self, minidb_index, table, start, stop):
        store = minidb_index.store
        want = FeatureStore.read_table_rows(store, table, start, stop)
        got = store.read_table_rows(table, start, stop)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_whole_table_and_unknown_table(self, minidb_index):
        store = minidb_index.store
        assert store.read_table_rows("drop_points").shape == (
            store.counts().drop_points, 6
        )
        for bad in ("segments", "nope"):
            with pytest.raises(InvalidParameterError):
                store.read_table_rows(bad)


# ---------------------------------------------------------------------- #
# sealed partitions: clustered, write-once
# ---------------------------------------------------------------------- #


def _walk(n, seed=5):
    from repro.datagen import random_walk_series

    series = random_walk_series(n, dt=300.0, step_std=0.8, seed=seed)
    return np.asarray(series.times), np.asarray(series.values)


def _sha1(path):
    return hashlib.sha1(file_bytes(path)).hexdigest()


class TestSealCost:
    def test_minidb_seal_writes_each_page_a_bounded_number_of_times(
        self, tmp_path
    ):
        """A ~20 000-row partition is written once: its heap, segment
        and catalog pages, each exactly once, then one fsync — where
        the page WAL and its checkpoint used to write every page twice
        plus the catalog per checkpoint."""
        ts, vs = _walk(3000)
        inj = FaultInjector()
        live = LiveIndex(
            0.2, 8 * 3600.0, directory=str(tmp_path / "live.d"),
            backend="minidb", seal_rows=20000, _fs=inj,
        )
        try:
            for lo in range(0, ts.shape[0], 10):
                live.append_array(ts[lo : lo + 10], vs[lo : lo + 10])
                if live._sealed:
                    break
            part = live._sealed[0]
            assert 20000 <= part.spec.rows < 30000
            pages = os.path.getsize(part.path) // PAGE_SIZE
            assert pages > 100
            writes = [op for op, path in inj.op_log if path == part.path]
            assert writes == ["write"] * pages + ["fsync"]
            # the store opened for reads has written nothing since
            assert part.store.pager_stats().disk_writes == 0
            assert part.store.check() == []
        finally:
            live.close()
            inj.close_all()


# ---------------------------------------------------------------------- #
# every file op of a MiniDB seal is a crash point
# ---------------------------------------------------------------------- #

SEAL_N = 160


def _seal_workload(directory, fs, mark=None):
    """Ingest with sealing held off, then one explicit MiniDB seal;
    ``mark`` records the op counter around the seal."""
    ts, vs = _walk(SEAL_N, seed=11)
    live = LiveIndex(
        0.3, 4 * 3600.0, directory=directory, backend="minidb",
        seal_rows=10**9, _fs=fs,
    )
    try:
        live.append_array(ts, vs)
        if mark is not None:
            mark["before"] = fs.op_count
        live.seal()
        if mark is not None:
            mark["after"] = fs.op_count
    finally:
        try:
            live.close()
        except Exception:
            pass


class TestSealCrashMatrix:
    def test_sealed_implies_trees_at_every_crash_point(self, tmp_path):
        """A crash at any op of a seal reopens to the previous generation
        with the orphan swept, or to the new partition complete with
        checksum trees that match its rows — and never to a page WAL."""
        from repro.storage import checksum as cks

        mark = {}
        inj = FaultInjector()
        _seal_workload(str(tmp_path / "probe.d"), inj, mark)
        inj.close_all()
        (part_file,) = (tmp_path / "probe.d").glob("p*.minidb")
        pages = part_file.stat().st_size // 4096
        seal_ops = inj.op_log[mark["before"] : mark["after"]]
        # each page once, one fsync; then the manifest and WAL installs
        assert sum(p.endswith(".minidb") for _op, p in seal_ops) == pages + 1
        assert not any(p.endswith(".wal") and "minidb" in p
                       for _op, p in inj.op_log)
        probe = LiveIndex.open(str(tmp_path / "probe.d"))
        want = probe._sealed[0].store.counts()
        probe.close()

        sealed_seen = 0
        for k in range(mark["before"] + 1, mark["after"] + 1):
            d = str(tmp_path / f"crash_{k}.d")
            fault = crash_at(partial(_seal_workload, d), k)
            assert isinstance(fault, FaultInjected), k
            reopened = LiveIndex.open(d)  # plain open sweeps orphans
            try:
                files = sorted(os.listdir(d))
                assert not any(f.endswith(".minidb.wal") for f in files), k
                if not reopened.partitions:
                    assert not any(f.endswith(".minidb") for f in files), k
                    continue
                sealed_seen += 1
                (part,) = reopened._sealed
                assert part.store.check() == [], k
                assert part.store.counts() == want, k
                trees = cks.load_trees(part.store)
                fresh = cks.store_trees(part.store)
                for table in cks.TABLES:
                    assert cks.diff_trees(trees[table], fresh[table])[0] == []
            finally:
                reopened.close()
        # crashes after the manifest install recover as sealed
        assert sealed_seen > 0



def _query(kind, t, v):
    """The engine's query for ``(kind, t, v)``, or None if it is not one
    (``T > 0``; ``V < 0`` for drops, ``V > 0`` for jumps)."""
    from repro.core.queries import DropQuery, JumpQuery

    if t <= 0 or (v >= 0 if kind == "drop" else v <= 0):
        return None
    return (DropQuery if kind == "drop" else JumpQuery)(t, v)


class TestClusteredWriter:
    def test_compaction_is_byte_identical_to_one_seal(self, tmp_path):
        ts, vs = _walk(900, seed=7)
        cuts = [0, 200, 430, 640, 900]
        files = {}
        for name, seal_at in (("merged", cuts[1:]), ("once", cuts[-1:])):
            d = str(tmp_path / name)
            live = LiveIndex(0.3, 4 * 3600.0, directory=d, backend="minidb",
                             seal_rows=10**9)
            for lo, hi in zip(cuts, cuts[1:]):
                live.append_array(ts[lo:hi], vs[lo:hi])
                if hi in seal_at:
                    live.seal()
            if name == "merged":
                assert len(live.partitions) == 4
                assert live.compact(max_rows=10**9, min_run=2) == 1
            (spec,) = live.partitions
            files[name] = file_bytes(os.path.join(d, spec.file))
            live.close()
        assert files["merged"] == files["once"]

    def test_open_query_close_leaves_the_file_unchanged(self, tmp_path):
        from repro.core.queries import DropQuery, JumpQuery

        ts, vs = _walk(600, seed=3)
        d = str(tmp_path / "live.d")
        live = LiveIndex(0.3, 4 * 3600.0, directory=d, backend="minidb",
                         seal_rows=10**9)
        live.append_array(ts, vs)
        live.seal()
        path = live._sealed[0].path
        live.close()
        before = _sha1(path)
        store = MiniDbFeatureStore(path)
        with pytest.raises(StorageError):
            store.db.table("drop_points").insert_many(np.zeros((1, 6)))
        with pytest.raises(StorageError):
            store.set_meta_many({"sealed": 0.0})
        for q in (DropQuery(3600.0, -1.0), JumpQuery(900.0, 0.5)):
            for mode in ("index", "scan"):
                for cache in ("warm", "cold"):
                    store.search(q, mode=mode, cache=cache)
        store.finalize()
        assert store.check() == []
        store.close()
        from repro.core.index import SegDiffIndex

        index = SegDiffIndex.open(path)  # planner, mode="auto"
        index.search_drops(3600.0, -1.0)
        index.search_jumps(900.0, 0.5)
        index.close()
        assert _sha1(path) == before
        assert not any(f.endswith(".minidb.wal") for f in os.listdir(d))

    @settings(max_examples=40, deadline=None)
    @given(
        flat=st.lists(KEY_VALUES, min_size=0, max_size=8 * 300),
        t_pick=st.integers(0, 10**6),
        v=KEY_VALUES,
    )
    def test_probe_matches_the_oracle(self, tmp_path_factory, flat, t_pick,
                                      v):
        """Random rows from a small value pool — Δt ties across page
        boundaries, ``-0.0`` next to ``0.0`` — and thresholds drawn from
        the stored Δt values: the prefix probe returns exactly the rows
        the row-by-row §4.4 predicate keeps, warm and cold, charging no
        more pages than a scan."""
        from types import SimpleNamespace

        unsorted = {}
        for name, width in (("drop_points", 6), ("jump_points", 6),
                            ("drop_lines", 8), ("jump_lines", 8)):
            n = len(flat) // width
            rows = np.array(flat[: n * width]).reshape(n, width)
            # the keys come from the pool; the identifying timestamps
            # make each row one valid pair (t_d <= t_c, t_b <= t_a)
            rows[:, -4:] = 10.0 * np.arange(n)[:, None] + np.arange(4)
            unsorted[name] = rows
        path = str(tmp_path_factory.mktemp("cl") / "p.minidb")
        sink = ClusteredSink(path, FaultInjector())
        sink.add_features_bulk(SimpleNamespace(**unsorted))
        sink.add_segments_bulk([])
        sink.finalize()
        tables = {name: sink.read_table_rows(name) for name in unsorted}
        for name, rows in tables.items():  # a stable sort on the key
            keys = unsorted[name][:, : 2 if rows.shape[1] == 6 else 4]
            order = sorted(range(len(keys)), key=lambda i: tuple(keys[i]))
            assert rows.tolist() == unsorted[name][order].tolist()
        sink.set_meta_many({"sealed": 1.0})
        dts = np.concatenate([rows[:, 0] for rows in tables.values()])
        t = float(dts[t_pick % dts.shape[0]]) if dts.shape[0] else 0.0
        store = MiniDbFeatureStore(path)
        try:
            assert store.check() == []
            for kind in ("drop", "jump"):
                points = tables[f"{kind}_points"]
                lines = tables[f"{kind}_lines"]
                want_p = [r for r in points.tolist()
                          if point_match(kind, r[0], r[1], t, v)]
                want_l = [r for r in lines.tolist()
                          if line_match(kind, r[0], r[1], r[2], r[3], t, v)]
                for cache in ("warm", "cold"):
                    got_p = store.probe_point_index_array(
                        kind, t, v_threshold=v, cache=cache)
                    got_l = store.probe_line_index_array(
                        kind, t, v_threshold=v, cache=cache)
                    assert got_p.tolist() == want_p, cache
                    assert got_l.tolist() == want_l, cache
                # through the engine: the §4.4 answer of tests/oracle.py
                query = _query(kind, t, v)
                if query is not None:
                    want = oracle_pairs([store], query)
                    for cache in ("warm", "cold"):
                        assert store.search(query, mode="index",
                                            cache=cache) == want, cache
                # the cut alone: exactly the Δt <= T prefix
                prefix = store.probe_point_index_array(kind, t)
                assert prefix.tolist() == [
                    r for r in points.tolist() if r[0] <= t
                ]
                before = store.page_reads()
                store.scan_points_array(kind)
                scan = store.page_reads() - before
                before = store.page_reads()
                store.probe_point_index_array(kind, t)
                assert store.page_reads() - before <= scan
        finally:
            store.close()

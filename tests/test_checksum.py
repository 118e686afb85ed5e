"""Tests for the Merkle-style checksum trees (repro.storage.checksum).

The anti-entropy contract: two row sets differ in k rows out of n →
``diff_trees`` localizes the damage to exactly the k leaves holding
those rows, reading O(k·log n) checksum ranges instead of n rows.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StorageError
from repro.storage import checksum as cks
from repro.storage.memory_store import MemoryFeatureStore
from repro.storage.sqlite_store import SqliteFeatureStore


def rows_of(n, width=6, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, width))


class TestBuildTree:
    def test_leaf_count(self):
        tree = cks.build_tree(rows_of(130), "drop_points", leaf_size=16)
        assert tree.n_leaves == math.ceil(130 / 16)
        assert tree.n_rows == 130

    def test_levels_halve_up_to_root(self):
        tree = cks.build_tree(rows_of(200), "drop_points", leaf_size=8)
        sizes = [len(level) for level in tree.levels]
        assert sizes[0] == tree.n_leaves
        for below, above in zip(sizes, sizes[1:]):
            assert above == math.ceil(below / 2)
        assert sizes[-1] == 1

    def test_empty_table_has_one_leaf(self):
        tree = cks.build_tree(np.empty((0, 6)), "drop_points")
        assert tree.n_leaves == 1
        assert tree.root == tree.levels[0][0]

    def test_deterministic(self):
        rows = rows_of(97)
        a = cks.build_tree(rows, "drop_points", leaf_size=10)
        b = cks.build_tree(rows.copy(), "drop_points", leaf_size=10)
        assert a.root == b.root
        assert a.levels == b.levels

    def test_leaf_of_row_matches_leaf_range(self):
        tree = cks.build_tree(rows_of(100), "drop_points", leaf_size=7)
        for row in (0, 6, 7, 50, 99):
            leaf = tree.leaf_of_row(row)
            start, stop = tree.leaf_range(leaf)
            assert start <= row < stop


class TestDiffTrees:
    def test_identical_trees_cost_one_comparison(self):
        rows = rows_of(500)
        a = cks.build_tree(rows, "drop_points", leaf_size=16)
        b = cks.build_tree(rows.copy(), "drop_points", leaf_size=16)
        ranges, checked = cks.diff_trees(a, b)
        assert ranges == []
        assert checked == 1  # root comparison settles it

    def test_single_mutation_localized_to_its_leaf(self):
        rows = rows_of(512)
        bad = rows.copy()
        bad[300, 2] += 1.0
        a = cks.build_tree(rows, "drop_points", leaf_size=16)
        b = cks.build_tree(bad, "drop_points", leaf_size=16)
        ranges, checked = cks.diff_trees(a, b)
        leaf = a.leaf_of_row(300)
        assert ranges == [a.leaf_range(leaf)]
        # descent cost is the tree height x branching, nowhere near 512
        assert checked <= 2 * len(a.levels) + 1

    def test_shape_mismatch_flags_whole_table(self):
        a = cks.build_tree(rows_of(100), "drop_points", leaf_size=16)
        b = cks.build_tree(rows_of(90), "drop_points", leaf_size=16)
        ranges, checked = cks.diff_trees(a, b)
        assert ranges == [(0, 100)]
        assert checked == 1

    def test_k_mutations_cost_k_log_n_not_n(self):
        n, k = 4096, 5
        rows = rows_of(n)
        bad = rows.copy()
        mutated = [7, 900, 1800, 2700, 4000]
        for row in mutated:
            bad[row, 0] += 1.0
        a = cks.build_tree(rows, "drop_points", leaf_size=16)
        b = cks.build_tree(bad, "drop_points", leaf_size=16)
        ranges, checked = cks.diff_trees(a, b)
        assert len(ranges) == k  # the rows land in k distinct leaves
        covered = [r for r in ranges for m in mutated if r[0] <= m < r[1]]
        assert len(covered) == k
        # O(k log n) with slack for shared upper levels; a full
        # row-by-row scan would be n = 4096
        assert checked <= 2 * k * len(a.levels)
        assert checked < n // 8

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=600),
        seed=st.integers(min_value=0, max_value=2**16),
        leaf=st.sampled_from([4, 16, 64]),
        data=st.data(),
    )
    def test_property_single_mutation_exact_leaf(self, n, seed, leaf, data):
        """Any single damaged row diverges in exactly its own leaf."""
        rows = rows_of(n, seed=seed)
        row = data.draw(st.integers(min_value=0, max_value=n - 1))
        bad = rows.copy()
        bad[row, data.draw(st.integers(0, rows.shape[1] - 1))] += 0.5
        a = cks.build_tree(rows, "drop_points", leaf_size=leaf)
        b = cks.build_tree(bad, "drop_points", leaf_size=leaf)
        ranges, _ = cks.diff_trees(a, b)
        assert ranges == [a.leaf_range(a.leaf_of_row(row))]


class TestPersistence:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_roundtrip(self, tmp_path, backend, walk_series):
        from repro.core.index import SegDiffIndex

        if backend == "sqlite":
            store = SqliteFeatureStore(str(tmp_path / "t.idx"))
        else:
            store = MemoryFeatureStore()
        index = SegDiffIndex(0.3, 4 * 3600.0, store)
        index.ingest(walk_series)
        index.finalize()
        sealed = index.seal_checksums(leaf_size=32)
        loaded = cks.load_trees(index.store)
        assert loaded is not None
        for table in cks.TABLES:
            assert loaded[table] == sealed[table]
        index.close()

    def test_absent_trees_load_as_none(self):
        store = MemoryFeatureStore()
        store.finalize()
        assert cks.load_trees(store) is None
        store.close()

    def test_truncated_tree_raises(self, walk_series):
        from repro.core.index import SegDiffIndex

        index = SegDiffIndex.build(walk_series, 0.3, 4 * 3600.0)
        index.seal_checksums()
        # damage the persisted tree: drop one interior node key
        assert index.store.get_meta("cks/drop_points/0/0") is not None
        index.store._meta.pop("cks/drop_points/0/0")
        with pytest.raises(StorageError, match="truncated"):
            cks.load_trees(index.store)
        index.close()

    @pytest.mark.parametrize(
        "key", ["n_levels", "len/0", "n_rows", "leaf_size", "0/0"]
    )
    @pytest.mark.parametrize("bad", [1e18, -1.0, float("nan"), 2.5])
    def test_corrupt_counts_never_bound_a_loop(self, walk_series, key, bad):
        """Counts read off disk are checked against the shape ``n_rows``
        and ``leaf_size`` imply before anything iterates over them."""
        from repro.core.index import SegDiffIndex
        from repro.errors import CorruptionError

        index = SegDiffIndex.build(walk_series, 0.3, 4 * 3600.0)
        index.seal_checksums()
        index.store.set_meta(f"cks/drop_points/{key}", bad)
        with pytest.raises(CorruptionError, match="drop_points"):
            cks.load_trees(index.store)
        index.close()

    def test_consistent_but_wrong_shape_rejected(self, walk_series):
        from repro.core.index import SegDiffIndex
        from repro.errors import CorruptionError

        index = SegDiffIndex.build(walk_series, 0.3, 4 * 3600.0)
        trees = index.seal_checksums()
        levels = len(trees["jump_lines"].levels)
        assert levels > 1
        # one level too many / too few for the recorded row count
        for wrong in (levels + 1, levels - 1, 64.0, 65.0):
            index.store.set_meta("cks/jump_lines/n_levels", float(wrong))
            with pytest.raises(CorruptionError, match="n_levels"):
                cks.load_trees(index.store)
        index.close()


class TestStoreTrees:
    def test_covers_all_four_tables(self, walk_series):
        from repro.core.index import SegDiffIndex

        index = SegDiffIndex.build(walk_series, 0.3, 4 * 3600.0)
        trees = cks.store_trees(index.store)
        assert set(trees) == set(cks.TABLES)
        counts = index.store.counts()
        assert trees["drop_points"].n_rows == counts.drop_points
        assert trees["jump_lines"].n_rows == counts.jump_lines
        index.close()

    def test_detects_corrupted_read(self, walk_series):
        """A silently corrupted read diverges from the clean trees."""
        from repro.core.index import SegDiffIndex
        from repro.storage.faults import FaultyStoreWrapper, ReadFaultPolicy

        index = SegDiffIndex.build(walk_series, 0.3, 4 * 3600.0)
        clean = cks.store_trees(index.store)
        chaotic = FaultyStoreWrapper(
            index.store, ReadFaultPolicy(corrupt_at={1})
        )
        dirty = cks.store_trees(chaotic)
        ranges, _ = cks.diff_trees(clean["drop_points"], dirty["drop_points"])
        assert len(ranges) == 1  # one flipped row -> one leaf
        index.close()

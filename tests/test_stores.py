"""Tests for the feature stores: memory, SQLite, and their equivalence."""

import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.corners import collect_features
from repro.core.parallelogram import Parallelogram
from repro.core.queries import DropQuery, JumpQuery
from repro.errors import InvalidParameterError, StorageError
from repro.storage import MemoryFeatureStore, SqliteFeatureStore
from repro.types import DataSegment

from .oracle import dt_sorted_prefix


def feature_sets(epsilon=0.3):
    """A small zoo of parallelograms covering several cases."""
    chains = [
        # (cd, ab) pairs with varied slopes
        (DataSegment(0, 0, 10, 8), DataSegment(10, 8, 20, -5)),
        (DataSegment(10, 8, 20, -5), DataSegment(20, -5, 35, -2)),
        (DataSegment(20, -5, 35, -2), DataSegment(35, -2, 50, 9)),
        (DataSegment(0, 0, 10, 8), DataSegment(20, -5, 35, -2)),
    ]
    out = [collect_features(Parallelogram.from_segments(cd, ab), epsilon)
           for cd, ab in chains]
    out.append(
        collect_features(
            Parallelogram.self_pair(DataSegment(10, 8, 20, -5)), epsilon
        )
    )
    return out


QUERIES = [
    DropQuery(15.0, -3.0),
    DropQuery(40.0, -1.0),
    DropQuery(5.0, -10.0),
    JumpQuery(15.0, 3.0),
    JumpQuery(40.0, 1.0),
]


def load(store):
    for fs in feature_sets():
        store.add(fs)
    store.finalize()
    return store


class TestMemoryStore:
    def test_counts(self):
        store = load(MemoryFeatureStore())
        counts = store.counts()
        assert counts.total > 0
        assert counts.drop_points >= counts.drop_lines

    def test_scan_equals_index_mode(self):
        store = load(MemoryFeatureStore())
        for q in QUERIES:
            assert store.search(q, mode="scan") == store.search(q, mode="index")

    def test_search_before_finalize_fails(self):
        store = MemoryFeatureStore()
        store.add(feature_sets()[0])
        with pytest.raises(StorageError):
            store.search(QUERIES[0])

    def test_invalid_mode_rejected(self):
        store = load(MemoryFeatureStore())
        with pytest.raises(InvalidParameterError):
            store.search(QUERIES[0], mode="hash")

    def test_append_after_finalize_then_refinalize(self):
        store = MemoryFeatureStore()
        store.add(feature_sets()[0])
        store.finalize()
        before = store.counts().total
        store.add(feature_sets()[1])
        store.finalize()
        assert store.counts().total > before

    def test_closed_store_unusable(self):
        store = load(MemoryFeatureStore())
        store.close()
        with pytest.raises(StorageError):
            store.counts()

    def test_sizes_positive(self):
        store = load(MemoryFeatureStore())
        assert store.feature_bytes() > 0
        assert store.index_bytes() > 0
        assert store.disk_bytes() == store.feature_bytes() + store.index_bytes()

    def test_context_manager(self):
        with MemoryFeatureStore() as store:
            store.add(feature_sets()[0])
        with pytest.raises(StorageError):
            store.counts()


class TestSqliteStore:
    def test_roundtrip_tempfile(self):
        store = load(SqliteFeatureStore())
        path = store.path
        assert os.path.exists(path)
        assert store.counts().total > 0
        store.close()
        assert not os.path.exists(path), "temp file must be removed"

    def test_explicit_path_kept(self, tmp_path):
        path = str(tmp_path / "features.sqlite")
        store = load(SqliteFeatureStore(path))
        store.close()
        assert os.path.exists(path)

    def test_reopen_existing_database(self, tmp_path):
        path = str(tmp_path / "features.sqlite")
        store = load(SqliteFeatureStore(path))
        results = {repr(q): store.search(q) for q in QUERIES}
        store.close()
        reopened = SqliteFeatureStore(path)
        for q in QUERIES:
            assert reopened.search(q) == results[repr(q)]
        reopened.close()

    def test_scan_equals_index(self):
        with load(SqliteFeatureStore()) as store:
            for q in QUERIES:
                assert store.search(q, mode="scan") == store.search(q, mode="index")

    def test_cold_equals_warm(self):
        with load(SqliteFeatureStore()) as store:
            for q in QUERIES:
                assert store.search(q, cache="cold") == store.search(q, cache="warm")

    def test_index_mode_requires_finalize(self):
        store = SqliteFeatureStore()
        store.add(feature_sets()[0])
        with pytest.raises(StorageError):
            store.search(QUERIES[0], mode="index")
        # but scan works on unindexed data
        assert isinstance(store.search(QUERIES[0], mode="scan"), list)
        store.close()

    def test_invalid_mode_and_cache_rejected(self):
        with load(SqliteFeatureStore()) as store:
            with pytest.raises(InvalidParameterError):
                store.search(QUERIES[0], mode="hash")
            with pytest.raises(InvalidParameterError):
                store.search(QUERIES[0], cache="lukewarm")

    def test_sizes_measured(self):
        with load(SqliteFeatureStore()) as store:
            feat = store.feature_bytes()
            idx = store.index_bytes()
            assert feat > 0
            assert idx > 0
            assert store.disk_bytes() == feat + idx

    def test_drop_indexes_zeroes_index_size(self):
        with load(SqliteFeatureStore()) as store:
            assert store.index_bytes() > 0
            store.drop_indexes()
            assert store.index_bytes() == 0

    def test_incremental_append(self):
        with SqliteFeatureStore() as store:
            store.add(feature_sets()[0])
            store.finalize()
            n1 = store.counts().total
            store.add(feature_sets()[1])
            store.finalize()
            assert store.counts().total > n1


class TestBackendEquivalence:
    def test_same_results_both_backends(self):
        mem = load(MemoryFeatureStore())
        sq = load(SqliteFeatureStore())
        try:
            for q in QUERIES:
                assert mem.search(q) == sq.search(q), f"mismatch for {q}"
        finally:
            sq.close()

    def test_same_counts_both_backends(self):
        mem = load(MemoryFeatureStore())
        sq = load(SqliteFeatureStore())
        try:
            assert mem.counts() == sq.counts()
        finally:
            sq.close()


# ---------------------------------------------------------------------- #
# memory tables stored clustered by Δt
# ---------------------------------------------------------------------- #

TABLES = ("drop_points", "drop_lines", "jump_points", "jump_lines")
#: below the minimum Δt, the minimum itself (a tie), between values, a
#: tie in the middle, the maximum, far above it
T_VALUES = [-1.0, 0.0, 12.5, 20.0, 35.0, 1e9]


def _rows(rng, n, width):
    """``n`` rows of ``width`` columns whose Δt takes 8 values (ties are
    common) and whose last column numbers the row, so every reordering
    of equal-Δt rows shows in the bytes."""
    rows = rng.normal(size=(n, width))
    rows[:, 0] = rng.integers(0, 8, n) * 5.0
    rows[:, -1] = np.arange(n)
    return rows


def _batch(rng, n_points, n_lines):
    return SimpleNamespace(
        drop_points=_rows(rng, n_points, 6),
        drop_lines=_rows(rng, n_lines, 8),
        jump_points=_rows(rng, n_points, 6),
        jump_lines=_rows(rng, n_lines, 8),
    )


def _concat(*batches):
    """Each table's rows in insertion order."""
    return {t: np.concatenate([getattr(b, t) for b in batches])
            for t in TABLES}


def _probe(store, table, t):
    kind, what = table.split("_")
    if what == "points":
        return store.probe_point_index_array(kind, t)
    return store.probe_line_index_array(kind, t)


def _scan(store, table):
    kind, what = table.split("_")
    if what == "points":
        return store.scan_points_array(kind)
    return store.scan_lines_array(kind)


def _same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestClusteredMemoryTables:
    """``finalize()`` stores each memory table stably sorted by Δt: an
    index probe is a prefix slice of the scan block, bit-identical to the
    old gather ``rows[argsort(dt, stable)][:cut]``, while row-addressed
    reads keep insertion order."""

    def _store(self, *batches):
        store = MemoryFeatureStore()
        for batch in batches:
            store.add_features_bulk(batch)
        store.finalize()
        return store

    def test_probe_is_a_view_of_the_scan_block(self):
        store = self._store(_batch(np.random.default_rng(1), 200, 120))
        for table in TABLES:
            scan = _scan(store, table)
            for t in T_VALUES[1:]:
                probe = _probe(store, table, t)
                assert probe.shape[0] > 0
                assert np.shares_memory(probe, scan)
                assert not probe.flags.writeable

    @pytest.mark.parametrize("t", T_VALUES)
    def test_probe_bit_identical_to_sorted_gather(self, t):
        batches = [_batch(np.random.default_rng(s), 150, 90) for s in (2, 3)]
        store = self._store(*batches)
        for table, rows in _concat(*batches).items():
            assert _same_bytes(_probe(store, table, t),
                               dt_sorted_prefix(rows, t)), table

    def test_empty_table(self):
        rng = np.random.default_rng(4)
        batch = _batch(rng, 30, 0)
        store = self._store(batch)
        for t in T_VALUES:
            for kind in ("drop", "jump"):
                probe = store.probe_line_index_array(kind, t)
                assert probe.shape == (0, 8)
                assert _same_bytes(
                    probe, dt_sorted_prefix(np.empty((0, 8)), t)
                )
        assert store.read_table_rows("drop_lines").shape == (0, 8)
        empty = self._store()
        for table in TABLES:
            assert _probe(empty, table, 1e9).shape[0] == 0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           sizes=st.lists(st.integers(0, 40), min_size=1, max_size=4),
           t=st.floats(-5.0, 45.0))
    def test_property_refreeze_keeps_both_orders(self, seed, sizes, t):
        """Append → re-freeze any number of times: probes stay the
        sorted gather of everything inserted, reads stay insertion
        order."""
        rng = np.random.default_rng(seed)
        store = MemoryFeatureStore()
        batches = []
        for n in sizes:
            batches.append(_batch(rng, n, n // 2))
            store.add_features_bulk(batches[-1])
            store.finalize()
            for table, rows in _concat(*batches).items():
                assert _same_bytes(store.read_table_rows(table), rows)
                assert _same_bytes(_probe(store, table, t),
                                   dt_sorted_prefix(rows, t))

    def test_read_table_rows_insertion_order(self):
        rng = np.random.default_rng(5)
        first, second = _batch(rng, 80, 40), _batch(rng, 60, 30)
        store = self._store(first)
        want = _concat(first)
        for table in TABLES:
            assert _same_bytes(store.read_table_rows(table), want[table])
            assert _same_bytes(store.read_table_rows(table, 10, 30),
                               want[table][10:30])
        # append -> re-freeze
        store.add_features_bulk(second)
        store.finalize()
        want = _concat(first, second)
        for table in TABLES:
            assert _same_bytes(store.read_table_rows(table), want[table])
        # a repair that moves rows to new Δt values re-clusters the table
        fresh = want["drop_points"][20:25].copy()
        fresh[:, 0] = [35.0, -3.0, 17.5, 0.0, 35.0]
        store.replace_table_rows("drop_points", 20, fresh)
        want["drop_points"][20:25] = fresh
        # a repair of Δv alone keeps the layout
        fresh = want["jump_lines"][3:9].copy()
        fresh[:, 1] += 1.0
        store.replace_table_rows("jump_lines", 3, fresh)
        want["jump_lines"][3:9] = fresh
        for table in TABLES:
            assert _same_bytes(store.read_table_rows(table), want[table])
            for t in T_VALUES:
                assert _same_bytes(_probe(store, table, t),
                                   dt_sorted_prefix(want[table], t))

    def test_index_bytes_unchanged(self):
        rng = np.random.default_rng(6)
        batches = [_batch(rng, 70, 35), _batch(rng, 20, 10)]
        store = self._store(batches[0])
        store.add_features_bulk(batches[1])
        store.finalize()
        n_rows = sum(rows.shape[0] for rows in _concat(*batches).values())
        # one sort permutation entry per row, as before clustering
        assert store.index_bytes() == n_rows * np.dtype(np.intp).itemsize

    def test_second_finalize_does_not_sort(self, monkeypatch):
        calls = []
        argsort = np.argsort

        def counting(*args, **kwargs):
            calls.append(1)
            return argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting)
        store = self._store(_batch(np.random.default_rng(7), 50, 20))
        assert len(calls) == len(TABLES)
        store.finalize()
        store.finalize()
        assert len(calls) == len(TABLES)

    def test_planner_sample_strides_insertion_order(self):
        batch = _batch(np.random.default_rng(8), 300, 10)
        store = self._store(batch)
        for kind in ("drop", "jump"):
            rows = getattr(batch, f"{kind}_points")
            step = rows.shape[0] // 16
            assert _same_bytes(store.sample_points(kind, 16),
                               rows[::step][:16, :2])

    def test_snapshot_shares_frozen_tables(self):
        rng = np.random.default_rng(9)
        first, second = _batch(rng, 90, 45), _batch(rng, 40, 20)
        store = self._store(first)
        snap = store.snapshot()
        want = {t: _probe(snap, t, 20.0).copy() for t in TABLES}
        for table in TABLES:
            assert np.shares_memory(_scan(snap, table), _scan(store, table))
        store.add_features_bulk(second)
        store.finalize()
        store.close()
        for table in TABLES:
            assert _same_bytes(_probe(snap, table, 20.0), want[table])
            assert _same_bytes(snap.read_table_rows(table),
                               _concat(first)[table])
        snap.close()

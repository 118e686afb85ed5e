"""Tests for the Exh and naive baselines."""

import os

import numpy as np
import pytest

from repro.baselines import ExhIndex, NaiveScan
from repro.datagen import TimeSeries, piecewise_series, random_walk_series
from repro.errors import InvalidParameterError, QueryError, StorageError
from repro.types import Event

from .oracle import dt_sorted_prefix

HOUR = 3600.0


@pytest.fixture
def drop_series():
    return piecewise_series(
        [0.0, 2 * HOUR, 2 * HOUR + 600.0, 4 * HOUR, 5 * HOUR],
        [10.0, 10.0, 4.0, 4.0, 12.0],
        dt=300.0,
    )


def event_set(events):
    return {(e.t_first, e.t_second, round(e.dv, 9)) for e in events}


class TestNaive:
    def test_finds_known_drop(self, drop_series):
        naive = NaiveScan(drop_series)
        hits = naive.search_drops(HOUR, -3.0)
        assert hits
        for ev in hits:
            assert ev.dv <= -3.0
            assert 0 < ev.dt <= HOUR

    def test_finds_known_jump(self, drop_series):
        hits = NaiveScan(drop_series).search_jumps(HOUR, 3.0)
        assert hits
        for ev in hits:
            assert ev.dv >= 3.0

    def test_matches_brute_force(self):
        series = random_walk_series(60, dt=100.0, step_std=1.0, seed=8)
        t, v = series.times, series.values
        expected = set()
        for i in range(len(t)):
            for j in range(i + 1, len(t)):
                if t[j] - t[i] <= 500.0 and v[j] - v[i] <= -1.0:
                    expected.add((t[i], t[j], round(v[j] - v[i], 9)))
        got = event_set(NaiveScan(series).search_drops(500.0, -1.0))
        assert got == expected

    def test_validation(self, drop_series):
        naive = NaiveScan(drop_series)
        with pytest.raises(InvalidParameterError):
            naive.search_drops(HOUR, 3.0)
        with pytest.raises(InvalidParameterError):
            naive.search_jumps(HOUR, -3.0)
        with pytest.raises(InvalidParameterError):
            naive.search_drops(0.0, -3.0)


class TestExhConstruction:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ExhIndex(0.0)
        with pytest.raises(InvalidParameterError):
            ExhIndex(10.0, backend="mysql")

    def test_pair_count_small_example(self):
        series = TimeSeries([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0])
        exh = ExhIndex.build(series, window=2.0)
        # pairs within dt <= 2: (0,1),(0,2),(1,2),(1,3),(2,3) = 5
        assert exh.n_pairs() == 5

    def test_non_increasing_time_rejected(self):
        exh = ExhIndex(10.0)
        exh.append(0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            exh.append(0.0, 1.0)

    def test_t_beyond_window_rejected(self, drop_series):
        exh = ExhIndex.build(drop_series, window=HOUR)
        with pytest.raises(QueryError):
            exh.search_drops(2 * HOUR, -3.0)

    def test_memory_index_requires_finalize(self):
        exh = ExhIndex(10.0)
        exh.append(0.0, 0.0)
        exh.append(1.0, 1.0)
        with pytest.raises(StorageError):
            exh.search_jumps(5.0, 0.5)

    def test_closed_index_unusable(self, drop_series):
        exh = ExhIndex.build(drop_series, HOUR)
        exh.close()
        with pytest.raises(StorageError):
            exh.n_pairs()


class TestExhCorrectness:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_equals_naive_on_drops(self, backend, drop_series):
        exh = ExhIndex.build(drop_series, window=8 * HOUR, backend=backend)
        try:
            naive = NaiveScan(drop_series)
            for (t_thr, v_thr) in [(HOUR, -3.0), (2 * HOUR, -1.0), (600.0, -5.0)]:
                assert event_set(exh.search_drops(t_thr, v_thr)) == event_set(
                    naive.search_drops(t_thr, v_thr)
                )
        finally:
            exh.close()

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_equals_naive_on_jumps(self, backend, drop_series):
        exh = ExhIndex.build(drop_series, window=8 * HOUR, backend=backend)
        try:
            naive = NaiveScan(drop_series)
            assert event_set(exh.search_jumps(2 * HOUR, 3.0)) == event_set(
                naive.search_jumps(2 * HOUR, 3.0)
            )
        finally:
            exh.close()

    def test_scan_equals_index_mode(self, drop_series):
        for backend in ("memory", "sqlite"):
            exh = ExhIndex.build(drop_series, 8 * HOUR, backend=backend)
            try:
                a = event_set(exh.search_drops(HOUR, -3.0, mode="scan"))
                b = event_set(exh.search_drops(HOUR, -3.0, mode="index"))
                assert a == b
            finally:
                exh.close()

    def test_cold_equals_warm_cache(self, drop_series):
        exh = ExhIndex.build(drop_series, 8 * HOUR, backend="sqlite")
        try:
            a = event_set(exh.search_drops(HOUR, -3.0, cache="cold"))
            b = event_set(exh.search_drops(HOUR, -3.0, cache="warm"))
            assert a == b
        finally:
            exh.close()

    def test_memory_equals_sqlite(self, drop_series):
        mem = ExhIndex.build(drop_series, 8 * HOUR, backend="memory")
        sq = ExhIndex.build(drop_series, 8 * HOUR, backend="sqlite")
        try:
            assert mem.n_pairs() == sq.n_pairs()
            assert event_set(mem.search_drops(HOUR, -3.0)) == event_set(
                sq.search_drops(HOUR, -3.0)
            )
        finally:
            sq.close()


class TestExhAccounting:
    def test_sizes_positive(self, drop_series):
        for backend in ("memory", "sqlite"):
            exh = ExhIndex.build(drop_series, 8 * HOUR, backend=backend)
            try:
                assert exh.feature_bytes() > 0
                assert exh.index_bytes() > 0
                assert exh.disk_bytes() == exh.feature_bytes() + exh.index_bytes()
            finally:
                exh.close()

    def test_tempfile_cleanup(self, drop_series):
        exh = ExhIndex.build(drop_series, HOUR, backend="sqlite")
        path = exh.path
        assert os.path.exists(path)
        exh.close()
        assert not os.path.exists(path)

    def test_grows_with_window(self):
        series = random_walk_series(200, dt=60.0, seed=3)
        small = ExhIndex.build(series, window=300.0)
        large = ExhIndex.build(series, window=3000.0)
        assert large.n_pairs() > small.n_pairs()

    def test_incremental_equals_batch(self, drop_series):
        batch = ExhIndex.build(drop_series, HOUR)
        inc = ExhIndex(HOUR)
        half = len(drop_series) // 2
        inc.ingest(drop_series.head(half))
        inc.finalize()
        for t, v in list(zip(drop_series.times, drop_series.values))[half:]:
            inc.append(float(t), float(v))
        inc.finalize()
        assert inc.n_pairs() == batch.n_pairs()
        assert event_set(inc.search_drops(HOUR, -3.0)) == event_set(
            batch.search_drops(HOUR, -3.0)
        )


class TestExhClustered:
    """The memory backend stores its pairs clustered by Δt, so an index
    probe is a prefix slice: the events are those of the old sorted
    gather ``rows[argsort(dt, stable)][:cut]``, in its order, and a scan
    returns the same list."""

    def test_index_probe_bit_identical_to_sorted_gather(self, drop_series):
        exh = ExhIndex(8 * HOUR)
        half = len(drop_series) // 2
        exh.ingest(drop_series.head(half))
        inserted = list(exh._rows)
        exh.finalize()
        for t, v in list(zip(drop_series.times, drop_series.values))[half:]:
            exh.append(float(t), float(v))
        inserted += exh._rows
        exh.finalize()
        rows = np.asarray(inserted, dtype=float)
        try:
            for t_thr, v_thr in [(300.0, -1.0), (HOUR, -3.0),
                                 (2 * HOUR, -0.5), (8 * HOUR, -1e-9)]:
                prefix = dt_sorted_prefix(rows, t_thr)
                want = [Event(t2 - dt, t2, dv)
                        for dt, dv, t2 in prefix[prefix[:, 1] <= v_thr]]
                assert want
                assert exh.search_drops(t_thr, v_thr, mode="index") == want
                assert exh.search_drops(t_thr, v_thr, mode="scan") == want
            assert exh.index_bytes() == (
                rows.shape[0] * np.dtype(np.intp).itemsize
            )
        finally:
            exh.close()

"""Equivalence tests for the batched index-build fast path.

The contract under test is strict: ``ingest_array`` /
``ingest_episodes_fast`` must be **bit-for-bit** equivalent to the
streaming :meth:`SegDiffIndex.append` reference path — identical
segments, identical stored feature rows in identical order, identical
:class:`ExtractionStats` — for every batch size, on every backend.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.index import SegDiffIndex
from repro.datagen import TimeSeries
from repro.errors import InvalidSeriesError
from repro.segmentation import SlidingWindowSegmenter

HOUR = 3600.0

TABLES = ("drop", "jump")


def make_walk(seed: int, n: int = 200, gaps: bool = False) -> TimeSeries:
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.uniform(60.0, 600.0, size=n))
    v = np.cumsum(rng.normal(0.0, 1.2, size=n))
    if gaps:
        # shove two long outages into the middle of the series
        t = t.copy()
        t[n // 3:] += 6 * HOUR
        t[2 * n // 3:] += 6 * HOUR
    return TimeSeries(t, v)


def all_rows(index):
    """Every stored feature row, as comparable float arrays."""
    out = {}
    for kind in TABLES:
        out[f"{kind}_points"] = np.asarray(
            index.store.scan_points_array(kind), dtype=float
        )
        out[f"{kind}_lines"] = np.asarray(
            index.store.scan_lines_array(kind), dtype=float
        )
    return out


def assert_identical(reference, candidate):
    assert reference.segments == candidate.segments
    ref_stats, cand_stats = reference.stats(), candidate.stats()
    assert ref_stats.n_observations == cand_stats.n_observations
    assert ref_stats.extraction == cand_stats.extraction
    ref_rows, cand_rows = all_rows(reference), all_rows(candidate)
    for table in ref_rows:
        assert ref_rows[table].shape == cand_rows[table].shape, table
        assert np.array_equal(ref_rows[table], cand_rows[table]), table


class TestBatchedEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        batch_size=st.integers(min_value=1, max_value=257),
    )
    @settings(max_examples=30, deadline=None)
    def test_any_batch_size_matches_streaming(self, seed, batch_size):
        series = make_walk(seed, n=120)
        scalar = SegDiffIndex.build(series, 0.4, 2 * HOUR, batch_size=0)
        fast = SegDiffIndex.build(
            series, 0.4, 2 * HOUR, batch_size=batch_size
        )
        try:
            assert_identical(scalar, fast)
        finally:
            scalar.close()
            fast.close()

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        batch_size=st.integers(min_value=1, max_value=257),
    )
    @settings(max_examples=15, deadline=None)
    def test_episodes_match_streaming(self, seed, batch_size):
        series = make_walk(seed, n=120, gaps=True)
        scalar = SegDiffIndex.build(
            series, 0.4, 2 * HOUR, batch_size=0, max_gap=HOUR
        )
        fast = SegDiffIndex.build(
            series, 0.4, 2 * HOUR, batch_size=batch_size, max_gap=HOUR
        )
        try:
            assert_identical(scalar, fast)
        finally:
            scalar.close()
            fast.close()

    def test_no_self_pairs_variant(self):
        series = make_walk(3)
        scalar = SegDiffIndex.build(
            series, 0.4, 2 * HOUR, batch_size=0, emit_self_pairs=False
        )
        fast = SegDiffIndex.build(
            series, 0.4, 2 * HOUR, batch_size=37, emit_self_pairs=False
        )
        try:
            assert_identical(scalar, fast)
        finally:
            scalar.close()
            fast.close()

    @pytest.mark.parametrize("backend", ["sqlite", "minidb"])
    def test_file_backends_match_streaming(self, backend, tmp_path):
        series = make_walk(11, n=150, gaps=True)
        scalar = SegDiffIndex.build(
            series, 0.4, 2 * HOUR, backend=backend,
            path=str(tmp_path / "scalar.idx"), batch_size=0, max_gap=HOUR,
        )
        fast = SegDiffIndex.build(
            series, 0.4, 2 * HOUR, backend=backend,
            path=str(tmp_path / "fast.idx"), batch_size=64, max_gap=HOUR,
        )
        try:
            assert_identical(scalar, fast)
        finally:
            scalar.close()
            fast.close()

    def test_gap_counts_agree(self):
        series = make_walk(9, n=120, gaps=True)
        a = SegDiffIndex(0.4, 2 * HOUR)
        b = SegDiffIndex(0.4, 2 * HOUR)
        assert a.ingest_episodes(series, HOUR) == 2
        assert b.ingest_episodes_fast(series, max_gap=HOUR) == 2


class TestSegmenterBatchAPI:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_push_batch_matches_push(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 150))
        ts = np.cumsum(rng.uniform(0.5, 3.0, size=n))
        vs = np.cumsum(rng.normal(0.0, 1.0, size=n))
        scalar = SlidingWindowSegmenter(0.5)
        batched = SlidingWindowSegmenter(0.5)
        out_scalar = []
        for t, v in zip(ts, vs):
            out_scalar.extend(scalar.push(float(t), float(v)))
        out_scalar.extend(scalar.finish())
        out_batched = []
        i = 0
        while i < n:  # feed in random-sized chunks
            step = int(rng.integers(1, 32))
            out_batched.extend(batched.push_batch(ts[i:i + step],
                                                  vs[i:i + step]))
            i += step
        out_batched.extend(batched.finish())
        assert out_scalar == out_batched

    def test_push_batch_rejects_bad_input(self):
        seg = SlidingWindowSegmenter(0.5)
        with pytest.raises(InvalidSeriesError):
            seg.push_batch(np.array([[1.0]]), np.array([[1.0]]))
        with pytest.raises(InvalidSeriesError):
            seg.push_batch(np.array([1.0, 2.0]), np.array([1.0]))
        with pytest.raises(InvalidSeriesError):
            # non-increasing timestamps rejected before any consumption
            seg.push_batch(np.array([1.0, 1.0]), np.array([0.0, 0.0]))


class TestExplainCacheCounters:
    def test_minidb_explain_reports_pool_counters(self, tmp_path):
        series = make_walk(10, n=150)
        index = SegDiffIndex.build(
            series, 0.4, 2 * HOUR, backend="minidb",
            path=str(tmp_path / "m.idx"),
        )
        try:
            report = index.explain_report("drop", HOUR, -2.0)
            assert report.pages_read is not None and report.pages_read > 0
            assert report.cache_hits is not None
            assert report.cache_misses is not None
            assert report.cache_hits + report.cache_misses == report.pages_read
            assert "pool hits" in report.render()
        finally:
            index.close()

    def test_memory_explain_has_no_counters(self):
        series = make_walk(10, n=80)
        index = SegDiffIndex.build(series, 0.4, 2 * HOUR)
        try:
            report = index.explain_report("drop", HOUR, -2.0)
            assert report.pages_read is None
            assert report.cache_hits is None
            assert report.cache_misses is None
            assert "pool hits" not in report.render()
        finally:
            index.close()

"""Tests for the adaptive planner, top-k deepest search, and gap episodes."""

import pytest

from repro.baselines import NaiveScan
from repro.core.index import SegDiffIndex
from repro.datagen import piecewise_series
from repro.engine.cost import CostModel
from repro.errors import InvalidParameterError, StorageError
from repro.storage import MemoryFeatureStore, SqliteFeatureStore

HOUR = 3600.0


@pytest.fixture
def walk_index(walk_series):
    idx = SegDiffIndex.build(walk_series, epsilon=0.2, window=8 * HOUR)
    yield idx
    idx.close()


class TestStoreSampling:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_sample_points_shape(self, walk_series, backend):
        idx = SegDiffIndex.build(walk_series, 0.2, 8 * HOUR, backend=backend)
        try:
            sample = idx.store.sample_points("drop", 64)
            assert sample is not None
            assert sample.ndim == 2 and sample.shape[1] == 2
            assert 1 <= sample.shape[0] <= 64
        finally:
            idx.close()

    @pytest.mark.parametrize("store_cls", [MemoryFeatureStore, SqliteFeatureStore])
    def test_empty_store_samples_none(self, store_cls):
        with store_cls() as store:
            store.finalize()
            assert store.sample_points("drop", 10) is None
            assert store.extreme_feature_dv("drop") is None

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_extreme_feature_dv_signs(self, walk_series, backend):
        idx = SegDiffIndex.build(walk_series, 0.2, 8 * HOUR, backend=backend)
        try:
            deepest = idx.store.extreme_feature_dv("drop")
            highest = idx.store.extreme_feature_dv("jump")
            assert deepest < 0 < highest
        finally:
            idx.close()

    def test_backends_agree_on_extremes(self, walk_series):
        mem = SegDiffIndex.build(walk_series, 0.2, 8 * HOUR, backend="memory")
        sql = SegDiffIndex.build(walk_series, 0.2, 8 * HOUR, backend="sqlite")
        try:
            assert mem.store.extreme_feature_dv("drop") == pytest.approx(
                sql.store.extreme_feature_dv("drop")
            )
        finally:
            mem.close()
            sql.close()


class TestPlanner:
    def test_validation(self, walk_index):
        with pytest.raises(InvalidParameterError):
            CostModel(walk_index.store, sample_size=0)
        with pytest.raises(InvalidParameterError):
            CostModel(walk_index.store, scan_threshold=0.0)

    def test_selectivity_bounds(self, walk_index):
        planner = CostModel(walk_index.store)
        tiny = planner.estimate_selectivity("drop", HOUR, -1e6)
        huge = planner.estimate_selectivity("drop", 8 * HOUR, -1e-6)
        assert 0.0 <= tiny <= huge <= 1.0
        assert tiny == 0.0

    def test_mode_choice_follows_selectivity(self, walk_index):
        planner = CostModel(walk_index.store, scan_threshold=0.02)
        assert planner.choose_mode("drop", HOUR, -1e6) == "index"
        assert planner.choose_mode("drop", 8 * HOUR, -1e-6) == "scan"

    def test_empty_store_prefers_scan(self):
        with MemoryFeatureStore() as store:
            store.finalize()
            planner = CostModel(store)
            assert planner.choose_mode("drop", 1.0, -1.0) == "scan"

    def test_auto_mode_returns_same_results(self, walk_index):
        expect = walk_index.search_drops(HOUR, -2.0, mode="index")
        assert walk_index.search_drops(HOUR, -2.0, mode="auto") == expect

    def test_invalidate_resamples(self, walk_index):
        planner = walk_index.planner
        planner.estimate_selectivity("drop", HOUR, -2.0)
        assert planner._samples
        planner.invalidate()
        assert not planner._samples


class TestTopK:
    def test_matches_naive_deepest(self, walk_series):
        idx = SegDiffIndex.build(walk_series, epsilon=0.1, window=8 * HOUR)
        hits = idx.search_deepest_drops(3, HOUR, data=walk_series)
        assert len(hits) == 3
        depths = [h.witness.dv for h in hits]
        assert depths == sorted(depths)

        # the naive baseline's deepest sampled drop bounds ours from below
        naive_events = NaiveScan(walk_series).search_drops(HOUR, -0.001)
        naive_deepest = min(e.dv for e in naive_events)
        assert hits[0].witness.dv <= naive_deepest + 1e-9
        idx.close()

    def test_k_larger_than_available(self, simple_series):
        idx = SegDiffIndex.build(simple_series, 0.1, 8 * HOUR)
        hits = idx.search_deepest_drops(1000, HOUR, data=simple_series)
        assert 1 <= len(hits) < 1000
        idx.close()

    def test_flat_series_returns_empty(self):
        flat = piecewise_series([0.0, 10 * HOUR], [5.0, 5.0], dt=300.0)
        idx = SegDiffIndex.build(flat, 0.0, 8 * HOUR)
        assert idx.search_deepest_drops(3, HOUR) == []
        idx.close()

    def test_k_validation(self, walk_index):
        with pytest.raises(InvalidParameterError):
            walk_index.search_deepest_drops(0, HOUR)

    def test_uses_approximation_when_no_data(self, walk_series):
        idx = SegDiffIndex.build(walk_series, epsilon=0.2, window=8 * HOUR)
        hits = idx.search_deepest_drops(2, HOUR)
        exact = idx.search_deepest_drops(2, HOUR, data=walk_series)
        # approximation-based depth within epsilon of the exact one
        assert hits[0].witness.dv == pytest.approx(
            exact[0].witness.dv, abs=0.2 + 1e-6
        )
        idx.close()


class TestGapEpisodes:
    def make_gappy(self):
        """Two flat-drop episodes separated by a 6-hour outage."""
        a = piecewise_series(
            [0.0, HOUR, HOUR + 600.0, 2 * HOUR], [10.0, 10.0, 5.0, 5.0],
            dt=300.0,
        )
        b = piecewise_series(
            [8 * HOUR, 9 * HOUR, 9 * HOUR + 600.0, 10 * HOUR],
            [12.0, 12.0, 6.0, 6.0],
            dt=300.0,
        )
        return a, b

    def test_ingest_episodes_counts_gaps(self):
        a, b = self.make_gappy()
        merged = a.concat(b)
        idx = SegDiffIndex(0.1, 8 * HOUR)
        gaps = idx.ingest_episodes(merged, max_gap=HOUR)
        idx.finalize()
        assert gaps == 1
        assert len(idx.episode_approximations()) == 2
        idx.close()

    def test_no_result_spans_the_gap(self):
        a, b = self.make_gappy()
        merged = a.concat(b)
        idx = SegDiffIndex(0.1, 8 * HOUR)
        idx.ingest_episodes(merged, max_gap=HOUR)
        idx.finalize()
        # without the gap break, the 10->6 fall from episode A's start to
        # episode B's end could be reported; with it, never
        pairs = idx.search_drops(8 * HOUR, -3.0)
        assert pairs
        for p in pairs:
            same_episode = (p.t_c <= a.t_end and p.t_a <= a.t_end) or (
                p.t_d >= b.t_start and p.t_b >= b.t_start
            )
            assert same_episode, f"pair spans the gap: {p}"
        idx.close()

    def test_both_episodes_searchable(self):
        a, b = self.make_gappy()
        merged = a.concat(b)
        idx = SegDiffIndex(0.1, 8 * HOUR)
        idx.ingest_episodes(merged, max_gap=HOUR)
        idx.finalize()
        pairs = idx.search_drops(HOUR, -4.0)
        ends = {p.t_a for p in pairs}
        assert any(t <= a.t_end for t in ends), "episode A drop found"
        assert any(t >= b.t_start for t in ends), "episode B drop found"
        idx.close()

    def test_approximation_raises_on_episodes(self):
        a, b = self.make_gappy()
        idx = SegDiffIndex(0.1, 8 * HOUR)
        idx.ingest_episodes(a.concat(b), max_gap=HOUR)
        idx.finalize()
        with pytest.raises(InvalidParameterError, match="episodes"):
            idx.approximation()
        idx.close()

    def test_mark_gap_on_sealed_index_rejected(self, walk_index):
        with pytest.raises(StorageError):
            walk_index.mark_gap()

    def test_invalid_max_gap_rejected(self, walk_series):
        idx = SegDiffIndex(0.1, 8 * HOUR)
        with pytest.raises(InvalidParameterError):
            idx.ingest_episodes(walk_series, max_gap=0.0)
        idx.close()

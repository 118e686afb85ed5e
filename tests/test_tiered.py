"""Tests for the multi-tolerance tier router (TieredIndex and its live
subclass)."""

import pytest

from repro.core.guarantees import audit_completeness, audit_soundness
from repro.core.queries import DropQuery
from repro.core.tiered import LiveTieredIndex, TieredIndex
from repro.datagen import PiecewiseLinearSignal
from repro.errors import InvalidParameterError, StorageError

HOUR = 3600.0
EPSILONS = (0.1, 0.4, 1.6)


@pytest.fixture(scope="module")
def tiered(request):
    from repro.datagen import random_walk_series

    series = random_walk_series(300, dt=300.0, step_std=0.8, seed=21)
    t = TieredIndex.build(series, EPSILONS, 8 * HOUR)
    t._test_series = series  # stash for guarantee audits
    yield t
    t.close()


class TestConstruction:
    def test_tiers_sorted_and_deduped(self):
        t = TieredIndex([1.0, 0.1, 1.0], 100.0)
        assert t.epsilons == [0.1, 1.0]

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            TieredIndex([], 100.0)

    def test_negative_rejected(self):
        with pytest.raises(InvalidParameterError):
            TieredIndex([-0.5], 100.0)

    def test_tier_access(self, tiered):
        assert tiered.tier(0.4).epsilon == 0.4
        with pytest.raises(InvalidParameterError):
            tiered.tier(0.2)

    def test_stats_cover_all_tiers(self, tiered):
        stats = tiered.stats()
        assert set(stats) == set(EPSILONS)
        assert tiered.total_disk_bytes() == sum(
            s.disk_bytes for s in stats.values()
        )

    def test_coarser_tiers_are_smaller(self, tiered):
        stats = tiered.stats()
        sizes = [stats[e].store_counts.total for e in sorted(EPSILONS)]
        assert sizes == sorted(sizes, reverse=True)


class TestRouting:
    def test_none_uses_finest(self, tiered):
        assert tiered.choose_tier(None) == 0.1

    def test_routing_thresholds(self, tiered):
        assert tiered.choose_tier(0.1) == 0.1  # nothing admissible -> finest
        assert tiered.choose_tier(0.2) == 0.1
        assert tiered.choose_tier(0.8) == 0.4
        assert tiered.choose_tier(3.2) == 1.6
        assert tiered.choose_tier(100.0) == 1.6

    def test_negative_tolerance_rejected(self, tiered):
        with pytest.raises(InvalidParameterError):
            tiered.choose_tier(-1.0)

    def test_search_delegates_to_chosen_tier(self, tiered):
        direct = tiered.tier(1.6).search_drops(HOUR, -5.0)
        routed = tiered.search_drops(HOUR, -5.0, max_tolerance=4.0)
        assert routed == direct

    def test_jump_routing(self, tiered):
        direct = tiered.tier(0.4).search_jumps(HOUR, 5.0)
        routed = tiered.search_jumps(HOUR, 5.0, max_tolerance=1.0)
        assert routed == direct


class TestGuaranteesPerTier:
    @pytest.mark.parametrize("tolerance", [None, 1.0, 4.0])
    def test_every_route_is_complete_and_sound(self, tiered, tolerance):
        series = tiered._test_series
        signal = PiecewiseLinearSignal.from_series(series)
        q = DropQuery(HOUR, -3.0)
        pairs = tiered.search_drops(
            q.t_threshold, q.v_threshold, max_tolerance=tolerance
        )
        eps = tiered.choose_tier(tolerance)
        assert not audit_completeness(pairs, signal, q)
        assert not audit_soundness(pairs, signal, q, eps)

    def test_coarse_tier_no_fewer_covered_events(self, tiered):
        """Both tiers cover all true events; the coarse one may add FPs
        but the fine tier's witnesses stay covered."""
        from repro.core.guarantees import covers, true_event_witnesses

        series = tiered._test_series
        signal = PiecewiseLinearSignal.from_series(series)
        q = DropQuery(HOUR, -3.0)
        coarse = tiered.search_drops(q.t_threshold, q.v_threshold, 4.0)
        for witness in true_event_witnesses(signal, q):
            assert covers(coarse, witness)


class TestLabelsAndCleanup:
    PAIR = [0.1234567, 0.1234568]  # both format as tier-0.123457

    def test_colliding_labels_rejected(self, walk_series):
        with pytest.raises(InvalidParameterError) as err:
            TieredIndex.build(walk_series, self.PAIR, 8 * HOUR)
        assert all(repr(e) in str(err.value) for e in self.PAIR)

    def test_colliding_live_labels_rejected_before_any_directory(
        self, tmp_path
    ):
        d = tmp_path / "ladder"
        with pytest.raises(InvalidParameterError) as err:
            LiveTieredIndex(self.PAIR, 8 * HOUR, directory=str(d))
        assert all(repr(e) in str(err.value) for e in self.PAIR)
        assert not d.exists()

    def test_failed_build_closes_built_tiers(
        self, walk_series, second_build_fails
    ):
        built, closed = second_build_fails
        with pytest.raises(StorageError, match="injected"):
            TieredIndex.build(walk_series, EPSILONS, 8 * HOUR)
        assert len(built) == 1 and built[0] in closed

    def test_failed_live_ladder_closes_opened_tiers(
        self, tmp_path, open_files
    ):
        from repro.core.live import LiveIndex

        LiveIndex(0.3, 8 * HOUR, directory=str(tmp_path / "tier-0.4")).close()
        with pytest.raises(StorageError, match="epsilon"):
            LiveTieredIndex([0.1, 0.4], 8 * HOUR, directory=str(tmp_path))
        assert (tmp_path / "tier-0.1" / "hot.wal").exists()
        assert open_files(tmp_path) == []

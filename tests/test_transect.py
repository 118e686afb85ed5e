"""Tests for the multi-sensor transect: a ShardedIndex with one shard per
sensor, and cross-sensor corroboration over it."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.transect import CorroboratedEvent
from repro.datagen import TimeSeries, piecewise_series
from repro.engine import ShardedIndex
from repro.errors import InvalidParameterError, StorageError

HOUR = 3600.0


def sensor_with_drop(drop_at: float, depth: float, name: str) -> TimeSeries:
    """Flat 10, drop of `depth` at `drop_at` over 10 min, recover later."""
    series = piecewise_series(
        [0.0, drop_at, drop_at + 600.0, drop_at + 3 * HOUR, drop_at + 4 * HOUR],
        [10.0, 10.0, 10.0 - depth, 10.0 - depth, 10.0],
        dt=300.0,
    )
    return TimeSeries(series.times, series.values, name=name)


def per_sensor(transect, kind, t_threshold, v_threshold):
    """Each sensor's routed answer; sensors with no hits are omitted."""
    search = getattr(transect, f"search_{kind}s")
    hits = {
        name: search(t_threshold, v_threshold, sensors=[name])
        for name in transect.shard_ids
    }
    return {name: pairs for name, pairs in hits.items() if pairs}


@pytest.fixture
def transect():
    sensors = {
        "bottom": sensor_with_drop(2 * HOUR, 8.0, "bottom"),
        "mid": sensor_with_drop(2 * HOUR + 900.0, 5.0, "mid"),
        "rim": sensor_with_drop(12 * HOUR, 4.0, "rim"),  # unrelated, later
        "flat": piecewise_series([0.0, 20 * HOUR], [10.0, 10.0], dt=300.0),
    }
    t = ShardedIndex.build_transect(sensors, epsilon=0.1, window=8 * HOUR)
    yield t
    t.close()


class TestBuild:
    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            ShardedIndex.build_transect({}, 0.1, HOUR)

    def test_sensor_access(self, transect):
        assert len(transect.shards) == 4
        assert sorted(transect.shard_ids) == ["bottom", "flat", "mid", "rim"]
        assert transect.shard("bottom").spec.sensor == "bottom"
        assert transect.shard("bottom").primary.stats().n_observations > 0
        with pytest.raises(InvalidParameterError):
            transect.shard("nope")

    def test_stats_aggregate(self, transect):
        stats = transect.stats()
        assert stats["n_shards"] == 4
        for row in stats["shards"]:
            shard = transect.shard(row["shard_id"])
            assert row["sensor"] == row["shard_id"]
            assert row["rows"] == shard.primary.stats().store_counts.total


class TestPerSensorSearch:
    def test_drop_search_omits_quiet_sensors(self, transect):
        hits = per_sensor(transect, "drop", HOUR, -3.0)
        assert "flat" not in hits
        assert {"bottom", "mid", "rim"} <= set(hits)

    def test_depth_filter(self, transect):
        hits = per_sensor(transect, "drop", HOUR, -6.0)
        assert set(hits) == {"bottom"}

    def test_jump_search(self, transect):
        hits = per_sensor(transect, "jump", 2 * HOUR, 3.0)
        assert "bottom" in hits  # the recovery ramp rises 8 degrees
        assert "flat" not in hits


class TestCorroboration:
    def test_finds_aligned_event(self, transect):
        events = transect.search_corroborated(
            HOUR, -3.0, min_sensors=2, slack=HOUR
        )
        assert events
        best = max(events, key=lambda e: e.n_sensors)
        assert {"bottom", "mid"} <= set(best.sensors)
        lo, hi = best.window
        assert lo <= 2 * HOUR + 900.0 + 600.0 <= hi + HOUR

    def test_unaligned_sensor_not_grouped_with_early_event(self, transect):
        events = transect.search_corroborated(
            HOUR, -3.5, min_sensors=2, slack=900.0
        )
        for ev in events:
            assert not ({"rim"} == set(ev.sensors))
            if "rim" in ev.sensors:
                # rim's drop is 10 hours later; it must not share a group
                # with the bottom/mid event
                pytest.fail(f"rim grouped into {ev.sensors}")

    def test_min_sensors_filter(self, transect):
        all_events = transect.search_corroborated(
            HOUR, -3.0, min_sensors=1, slack=900.0
        )
        strict = transect.search_corroborated(
            HOUR, -3.0, min_sensors=3, slack=900.0
        )
        assert len(strict) <= len(all_events)

    def test_validation(self, transect):
        with pytest.raises(InvalidParameterError):
            transect.search_corroborated(HOUR, -3.0, min_sensors=0)
        with pytest.raises(InvalidParameterError):
            transect.search_corroborated(HOUR, -3.0, min_sensors=99)
        with pytest.raises(InvalidParameterError):
            transect.search_corroborated(HOUR, -3.0, slack=-1.0)

    def test_no_hits_no_events(self, transect):
        assert transect.search_corroborated(HOUR, -30.0) == []

    def test_event_structure(self, transect):
        events = transect.search_corroborated(HOUR, -3.0, min_sensors=2,
                                              slack=HOUR)
        for ev in events:
            assert isinstance(ev, CorroboratedEvent)
            assert ev.n_sensors == len(ev.hits)
            lo, hi = ev.window
            assert lo <= hi

    def test_lost_shard_raises_instead_of_answering_short(self, transect):
        before = transect.search_corroborated(HOUR, -3.0, min_sensors=1)
        assert any("mid" in ev.sensors for ev in before)
        transect.shard("mid").primary.store.close()
        with pytest.raises(StorageError):
            transect.search_corroborated(HOUR, -3.0, min_sensors=1)

    def test_time_sharded_index_rejected(self):
        series = piecewise_series([0.0, 20 * HOUR], [10.0, 10.0], dt=300.0)
        with ShardedIndex.build(
            series, 0.1, 8 * HOUR, n_shards=1, max_gap=HOUR
        ) as sharded:
            with pytest.raises(InvalidParameterError):
                sharded.search_corroborated(HOUR, -3.0, min_sensors=1)


def _walk(seed: int, n: int) -> TimeSeries:
    rng = np.random.default_rng(seed)
    times = 300.0 * np.arange(n, dtype=float)
    return TimeSeries(times, np.cumsum(rng.normal(0.0, 0.8, n)))


@given(
    seeds=st.lists(
        st.integers(min_value=0, max_value=10_000), min_size=2, max_size=5
    ),
    v_thr=st.floats(min_value=-4.0, max_value=-0.5),
    slack=st.sampled_from([0.0, 900.0, 3600.0]),
    min_sensors=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=15, deadline=None)
def test_events_partition_the_per_sensor_answers(
    seeds, v_thr, slack, min_sensors
):
    """With ``min_sensors=1`` every routed per-sensor hit lands in exactly
    one event; at any ``min_sensors`` each event has that many sensors."""
    sensors = {f"s{i}": _walk(seed, 150) for i, seed in enumerate(seeds)}
    min_sensors = min(min_sensors, len(sensors))
    with ShardedIndex.build_transect(sensors, 0.2, 4 * HOUR) as transect:
        routed = per_sensor(transect, "drop", HOUR, v_thr)
        events = transect.search_corroborated(
            HOUR, v_thr, min_sensors=1, slack=slack
        )
        placed = Counter(
            (sensor, pair)
            for ev in events
            for sensor, pairs in ev.hits.items()
            for pair in pairs
        )
        assert placed == Counter(
            (sensor, pair) for sensor, pairs in routed.items() for pair in pairs
        )
        for ev in transect.search_corroborated(
            HOUR, v_thr, min_sensors=min_sensors, slack=slack
        ):
            assert len(set(ev.hits)) >= min_sensors


class TestCadTransect:
    def test_canyon_bottom_dominates(self):
        """On real-shaped CAD data, bottom sensors report more drops."""
        from repro.datagen import CADConfig, CADTransectGenerator

        cfg = CADConfig(
            days=20, seed=9, n_sensors=7, anomaly_rate=0.0,
            event_probability=0.9,
        )
        gen = CADTransectGenerator(cfg)
        data = gen.generate_all()
        transect = ShardedIndex.build_transect(data, 0.2, 8 * HOUR)
        try:
            depths = {
                name: gen.depth_factor(i)
                for i, name in enumerate(gen.sensor_names())
            }
            deepest = max(depths, key=depths.get)
            shallowest = min(depths, key=depths.get)

            def deepest_witness(sensor: str) -> float:
                hits = transect.shard(sensor).primary.search_deepest_drops(
                    1, 2 * HOUR, data=data[sensor]
                )
                return hits[0].witness.dv if hits else 0.0

            # the canyon bottom's worst drop is deeper than the rim's
            assert deepest_witness(deepest) < deepest_witness(shallowest)
        finally:
            transect.close()

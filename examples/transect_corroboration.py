#!/usr/bin/env python3
"""Transect-level CAD detection: corroborating drops across sensors.

A genuine cold-air-drainage event pools cold air along the canyon floor,
so several sensors record the drop at roughly the same time; an isolated
single-sensor drop is more likely local turbulence or an artifact.  This
example builds the transect as a sharded index (one shard per sensor)
and asks the transect-level question directly:

    "when did at least three sensors see a >= 2.5 C drop within an hour,
     ending within 30 minutes of each other?"

Run with::

    python examples/transect_corroboration.py
"""

from repro.datagen import CADConfig, CADTransectGenerator, robust_loess
from repro.engine import ShardedIndex

HOUR = 3600.0


def main() -> None:
    cfg = CADConfig(
        days=5, seed=20080325, n_sensors=11, event_probability=0.8
    )
    gen = CADTransectGenerator(cfg)
    print(f"Generating {cfg.n_sensors} sensors x {cfg.days} days ...")
    data = {
        name: robust_loess(series, span=9, iterations=2)
        for name, series in gen.generate_all().items()
    }

    transect = ShardedIndex.build_transect(data, epsilon=0.2, window=8 * HOUR)
    stats = [shard.primary.stats() for shard in transect.shards]
    print(
        f"Indexed {sum(s.n_observations for s in stats)} observations into "
        f"{sum(s.n_segments for s in stats)} segments "
        f"({sum(s.store_counts.total for s in stats)} feature rows)"
    )

    print("\nPer-sensor hits (>= 2.5 C drop within 1 h):")
    for i, name in enumerate(gen.sensor_names()):
        hits = transect.search_drops(1 * HOUR, -2.5, sensors=[name])
        bar = "#" * min(len(hits), 60)
        depth = gen.depth_factor(i)
        print(f"  {name}  depth={depth:.2f}  {bar}")

    events = transect.search_corroborated(
        1 * HOUR, -2.5, min_sensors=3, slack=1800.0
    )
    print(f"\nCorroborated events (>= 3 sensors within 30 min): {len(events)}")
    for ev in events:
        lo, hi = ev.window
        day = int(lo // 86400)
        hour = (lo % 86400) / HOUR
        print(
            f"  day {day}, ~{hour:04.1f}h: {ev.n_sensors} sensors "
            f"({', '.join(ev.sensors)})"
        )

    # ground truth comparison: nights on which >= 3 sensors had an
    # injected event are exactly what corroboration should recover
    nights = {}
    for truth in gen.events:
        nights.setdefault(int(truth.t_onset // 86400), set()).add(truth.sensor)
    strong_nights = sorted(d for d, s in nights.items() if len(s) >= 3)
    found_days = {int(ev.window[0] // 86400) for ev in events}
    recovered = [d for d in strong_nights if d in found_days]
    print(
        f"\nGround truth: {len(strong_nights)} nights with >= 3 injected "
        f"events; corroboration recovered {len(recovered)} of them "
        f"({sorted(found_days)} vs {strong_nights})"
    )

    transect.close()


if __name__ == "__main__":
    main()

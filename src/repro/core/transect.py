"""Cross-sensor corroboration over a transect's per-sensor drop answers.

The paper's deployment is not one sensor but twenty-five, arranged in two
lines across a canyon, and the biology question is inherently spatial: a
*real* cold-air-drainage event shows up on several sensors at once, with
the canyon bottom leading.  The transect itself is a
:class:`repro.engine.sharding.ShardedIndex` (one shard per sensor, built
by ``ShardedIndex.build_transect``); this module holds the transect-level
CAD detector it runs over the per-sensor answers — :func:`corroborate`,
the end-interval sweep behind ``ShardedIndex.search_corroborated``.

Every per-sensor result keeps its Theorem 1 guarantee; corroboration is a
conjunction of per-sensor guarantees, so a corroborated event window
misses no true multi-sensor event either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from ..types import SegmentPair

__all__ = ["CorroboratedEvent", "corroborate"]


@dataclass(frozen=True)
class CorroboratedEvent:
    """A drop seen by several sensors at (roughly) the same time.

    ``window`` bounds the drop *end* times across the participating
    sensors; ``hits`` maps each sensor to the pairs whose end period
    falls inside the window.
    """

    window: Tuple[float, float]
    hits: Mapping[str, Tuple[SegmentPair, ...]]

    @property
    def n_sensors(self) -> int:
        return len(self.hits)

    @property
    def sensors(self) -> List[str]:
        return sorted(self.hits)


def corroborate(
    per_sensor: Mapping[str, Sequence[SegmentPair]],
    min_sensors: int,
    slack: float,
) -> List[CorroboratedEvent]:
    """Groups of hits seen by at least ``min_sensors`` sensors.

    A hit's *end interval* is ``[t_b, t_a]``.  Two hits corroborate
    when their end intervals, each padded by ``slack / 2``, overlap.
    Overlapping groups are merged with a sweep over interval endpoints,
    then groups with enough distinct sensors are reported.  The caller
    validates ``min_sensors >= 1`` and ``slack >= 0``.
    """
    intervals: List[Tuple[float, float, str, SegmentPair]] = []
    half = slack / 2.0
    for sensor, pairs in per_sensor.items():
        for pair in pairs:
            intervals.append((pair.t_b - half, pair.t_a + half, sensor, pair))
    if not intervals:
        return []

    intervals.sort(key=lambda iv: iv[0])
    events: List[CorroboratedEvent] = []
    group: List[Tuple[float, float, str, SegmentPair]] = []
    group_end = float("-inf")
    for iv in intervals:
        if group and iv[0] > group_end:
            events.extend(_emit_group(group, min_sensors, half))
            group = []
            group_end = float("-inf")
        group.append(iv)
        group_end = max(group_end, iv[1])
    events.extend(_emit_group(group, min_sensors, half))
    return events


def _emit_group(
    group: List[Tuple[float, float, str, SegmentPair]],
    min_sensors: int,
    half: float,
) -> List[CorroboratedEvent]:
    sensors: Dict[str, List[SegmentPair]] = {}
    for _lo, _hi, sensor, pair in group:
        sensors.setdefault(sensor, []).append(pair)
    if len(sensors) < min_sensors:
        return []
    lo = min(iv[0] for iv in group) + half
    hi = max(iv[1] for iv in group) - half
    return [
        CorroboratedEvent(
            window=(lo, hi),
            hits={s: tuple(ps) for s, ps in sensors.items()},
        )
    ]

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
from typing import Dict, List, Mapping, Tuple

import numpy as np

from ..types import SegmentPair, pairs_of

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
    per_sensor: Mapping[str, np.ndarray],
    min_sensors: int,
    slack: float,
) -> List[CorroboratedEvent]:
    """Groups of hits seen by at least ``min_sensors`` sensors.

    ``per_sensor`` maps each sensor to its answer as an ``(n, 4)`` ident
    matrix ``(t_d, t_c, t_b, t_a)``.  A hit's *end interval* is
    ``[t_b, t_a]``.  Two hits corroborate when their end intervals, each
    padded by ``slack / 2``, overlap.  Overlapping groups are merged with
    a sweep over the matrices' interval endpoints, and groups with enough
    distinct sensors are reported; only their hits become
    :class:`~repro.types.SegmentPair` objects.  The caller validates
    ``min_sensors >= 1`` and ``slack >= 0``.
    """
    names = list(per_sensor)
    blocks = [per_sensor[name] for name in names]
    if not sum(b.shape[0] for b in blocks):
        return []
    rows = np.vstack(blocks)
    sensor = np.repeat(np.arange(len(names)), [b.shape[0] for b in blocks])
    half = slack / 2.0
    # sweep in start order; a stable sort keeps ties in input order
    order = np.argsort(rows[:, 2] - half, kind="stable")
    rows, sensor = rows[order], sensor[order]
    lo, hi = rows[:, 2] - half, rows[:, 3] + half
    # a hit opens a new group when it starts after every earlier hit ends
    starts = np.flatnonzero(
        np.r_[True, lo[1:] > np.maximum.accumulate(hi)[:-1]]
    )
    ends = np.r_[starts[1:], rows.shape[0]]
    events: List[CorroboratedEvent] = []
    for a, b in zip(starts.tolist(), ends.tolist()):
        if np.unique(sensor[a:b]).shape[0] < min_sensors:
            continue
        hits: Dict[str, List[SegmentPair]] = {}
        for s, pair in zip(sensor[a:b].tolist(), pairs_of(rows[a:b])):
            hits.setdefault(names[s], []).append(pair)
        events.append(CorroboratedEvent(
            window=(float(lo[a]) + half, float(hi[a:b].max()) - half),
            hits={name: tuple(ps) for name, ps in hits.items()},
        ))
    return events

"""Seeded inputs and reference answers.

The *weather* is fixed and the *measurement* is seeded: every run uses
the CAD generator at the experiments' base seed (the same events the
paper-figure scripts see), and ``--seed`` re-draws a small sensor noise
added before the paper's robust smoothing, plus the jitter of the query
mix.  Each seed therefore hands the program different arrays, segments
and thresholds, but the same amount of work to within about a percent —
with the generator's own seed varied instead, the result count of the
query mix moved by 24 % (quartile distance) between seeds and no timing
bound under 25 % could have held.  The program sees only the arrays.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.queries import DropQuery, JumpQuery
from repro.datagen import (
    CADConfig,
    CADTransectGenerator,
    TimeSeries,
    robust_loess,
)

__all__ = [
    "EPSILON",
    "WINDOW",
    "COLD_QUERY",
    "sensor_series",
    "transect_series",
    "query_mix",
    "digest",
    "digest_rows",
    "query_kind",
]

HOUR = 3600.0

#: The paper's Section 6 defaults.
EPSILON = 0.2
WINDOW = 8 * HOUR

#: The canonical CAD query (3 degree drop within one hour) every cold
#: open answers first.
COLD_QUERY = DropQuery(1 * HOUR, -3.0)

#: ``repro.experiments.datasets._BASE_SEED``: the series the experiment
#: scripts use, so ledger numbers and paper figures share their data.
WEATHER_SEED = 20051201
EVENT_PROBABILITY = 0.7

#: Canyon-bottom sensor (deep drops present), as in ``standard_series``.
SENSOR = 12

#: How far, as a share of its grid cell, a query may sit from the cell's
#: centre.
QUERY_JITTER = 0.2

#: Std-dev (deg C) of the seeded sensor noise; a third of the generator's
#: own white noise, all of it removed or reshaped by the smoother.
SENSOR_NOISE = 0.05


def _smooth(raw: TimeSeries, rng: np.random.Generator) -> TimeSeries:
    noisy = TimeSeries(
        raw.times,
        np.asarray(raw.values) + rng.normal(0.0, SENSOR_NOISE, len(raw.values)),
        name=raw.name,
    )
    # the paper's preprocessing, with standard_series' parameters
    return robust_loess(noisy, span=9, iterations=2)


def sensor_series(days: int, seed: int) -> TimeSeries:
    """``days`` of the smoothed canyon-bottom sensor."""
    cfg = CADConfig(days=days, seed=WEATHER_SEED,
                    event_probability=EVENT_PROBABILITY)
    raw = CADTransectGenerator(cfg).generate(SENSOR)
    return _smooth(raw, np.random.default_rng([seed, 1]))


def transect_series(n_sensors: int, days: int,
                    seed: int) -> Dict[str, TimeSeries]:
    """``days`` of every sensor of an ``n_sensors`` transect."""
    cfg = CADConfig(days=days, seed=WEATHER_SEED, n_sensors=n_sensors,
                    event_probability=EVENT_PROBABILITY)
    raw = CADTransectGenerator(cfg).generate_all()
    rng = np.random.default_rng([seed, 2])
    return {name: _smooth(series, rng) for name, series in raw.items()}


def query_mix(seed: int, n_t: int, n_v: int, v_lo: float, v_hi: float,
              kinds: Sequence[str] = ("drop", "jump")) -> List:
    """``len(kinds) * n_t * n_v`` queries, one near the centre of each
    cell of a grid over ``T in [300 s, w] x |V| in [v_lo, v_hi]``.

    A lattice with a little seeded jitter (``QUERY_JITTER`` of a cell)
    rather than i.i.d. draws (``random_drop_queries``): selectivity
    still spans almost-nothing to almost-everything, but the mix costs
    the same on every seed.  Over ten seeds the median result count of
    the mix had a quartile distance of 21 % with free jitter inside the
    cell — ``query_p50_ms`` would have inherited it — and 4.5 % with
    this one.  The order is shuffled so neighbours in the loop are not
    neighbours in the plane.
    """
    rng = np.random.default_rng([seed, 3])
    t_min = 300.0
    queries = []
    for kind in kinds:
        for i in range(n_t):
            for j in range(n_v):
                dt, dv = QUERY_JITTER * (rng.random(2) - 0.5)
                t = t_min + (WINDOW - t_min) * (i + 0.5 + dt) / n_t
                v = v_lo + (v_hi - v_lo) * (j + 0.5 + dv) / n_v
                queries.append(
                    DropQuery(float(t), -float(v)) if kind == "drop"
                    else JumpQuery(float(t), float(v))
                )
    order = rng.permutation(len(queries))
    return [queries[i] for i in order]


def query_kind(query) -> str:
    return "drop" if isinstance(query, DropQuery) else "jump"


def digest_rows(rows: np.ndarray) -> Tuple[int, int]:
    """``(count, crc32)`` of an ``(n, 4)`` ident matrix, order-free."""
    rows = np.ascontiguousarray(rows, dtype=np.float64).reshape(-1, 4)
    if rows.shape[0]:
        rows = rows[np.lexsort(rows.T[::-1])]
    return int(rows.shape[0]), zlib.crc32(rows.tobytes())


def digest(pairs) -> Tuple[int, int]:
    """Sorted-ident digest of a list of ``SegmentPair``."""
    return digest_rows(
        np.array([p.as_tuple() for p in pairs], dtype=np.float64)
    )

"""Core value types shared across the library.

The vocabulary follows the paper:

* an :class:`Observation` is one sampled ``(t, v)`` reading;
* a :class:`DataSegment` is one piece of the piecewise linear approximation
  produced by segmentation (Section 4.1), running from its *start*
  observation to its *end* observation;
* an :class:`Event` is a pair of time stamps ``(t', t'')`` with the derived
  feature ``(dt, dv) = (t'' - t', v'' - v')`` (Section 2);
* a :class:`SegmentPair` is the unit SegDiff returns from a search — the
  tuple ``((t_D, t_C), (t_B, t_A))`` of Definition 3, i.e. the boundaries of
  the earlier segment ``CD`` and the later segment ``AB``.

All timestamps are seconds on an arbitrary epoch, stored as floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from .errors import InvalidSegmentError

__all__ = [
    "Observation",
    "DataSegment",
    "Event",
    "SegmentPair",
    "pairs_of",
]


@dataclass(frozen=True)
class Observation:
    """One sampled reading: a timestamp ``t`` and a value ``v``."""

    t: float
    v: float

    def __iter__(self):
        return iter((self.t, self.v))


@dataclass(frozen=True)
class DataSegment:
    """One segment of the piecewise linear approximation.

    ``t_start < t_end`` is required; values are the approximation's values
    at the two boundary timestamps (for the interpolation-based segmenter
    these coincide with the original sampled values).
    """

    t_start: float
    v_start: float
    t_end: float
    v_end: float

    def __post_init__(self) -> None:
        if not (self.t_end > self.t_start):
            raise InvalidSegmentError(
                f"segment must have positive duration, got "
                f"[{self.t_start}, {self.t_end}]"
            )
        for name in ("t_start", "v_start", "t_end", "v_end"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidSegmentError(f"segment field {name} is not finite")

    @property
    def duration(self) -> float:
        """Time span covered by the segment."""
        return self.t_end - self.t_start

    @property
    def rise(self) -> float:
        """Total value change over the segment (may be negative)."""
        return self.v_end - self.v_start

    @property
    def slope(self) -> float:
        """Slope ``k`` of the segment."""
        return self.rise / self.duration

    def value_at(self, t: float) -> float:
        """Value of the segment's line at time ``t``.

        ``t`` may lie outside ``[t_start, t_end]``; the line is extended.
        """
        return self.v_start + self.slope * (t - self.t_start)

    def contains_time(self, t: float) -> bool:
        """Whether ``t`` falls inside the segment's time extent."""
        return self.t_start <= t <= self.t_end

    def truncated_to_start(self, t_new_start: float) -> "DataSegment":
        """Return a copy starting at ``t_new_start`` (Algorithm 1, line 4).

        The new start value is the segment's own line evaluated at the new
        start time, so the truncated segment stays on the approximation.
        """
        if t_new_start <= self.t_start:
            return self
        if t_new_start >= self.t_end:
            raise InvalidSegmentError(
                f"cannot truncate segment [{self.t_start}, {self.t_end}] "
                f"to start at {t_new_start}"
            )
        return DataSegment(
            t_new_start, self.value_at(t_new_start), self.t_end, self.v_end
        )


@dataclass(frozen=True)
class Event:
    """A pair of time stamps and its feature, per the problem statement.

    ``t_first <= t_second``; ``dv`` is the value at ``t_second`` minus the
    value at ``t_first`` so a drop has ``dv < 0``.
    """

    t_first: float
    t_second: float
    dv: float

    @property
    def dt(self) -> float:
        """Time span ``Δt = t'' - t'`` of the event."""
        return self.t_second - self.t_first

    def is_drop(self, v_threshold: float, t_threshold: float) -> bool:
        """Whether this event satisfies the drop-search constraints."""
        return 0.0 < self.dt <= t_threshold and self.dv <= v_threshold

    def is_jump(self, v_threshold: float, t_threshold: float) -> bool:
        """Whether this event satisfies the jump-search constraints."""
        return 0.0 < self.dt <= t_threshold and self.dv >= v_threshold


@dataclass(frozen=True)
class SegmentPair:
    """The result unit of a SegDiff search (Definition 3).

    The drop (or jump) *starts* somewhere in ``[t_d, t_c]`` — the extent of
    the earlier segment ``CD`` — and *ends* somewhere in ``[t_b, t_a]`` —
    the extent of the later segment ``AB``.  A degenerate pair with
    ``(t_d, t_c) == (t_b, t_a)`` reports an event inside a single segment.
    """

    t_d: float
    t_c: float
    t_b: float
    t_a: float

    def __post_init__(self) -> None:
        if self.t_d > self.t_c or self.t_b > self.t_a:
            raise InvalidSegmentError(
                f"segment pair boundaries out of order: {self!r}"
            )

    @property
    def start_period(self) -> tuple:
        """``(t_D, t_C)`` — where the event may start."""
        return (self.t_d, self.t_c)

    @property
    def end_period(self) -> tuple:
        """``(t_B, t_A)`` — where the event may end."""
        return (self.t_b, self.t_a)

    @property
    def is_self_pair(self) -> bool:
        """Whether both periods refer to the same data segment."""
        return self.t_d == self.t_b and self.t_c == self.t_a

    def as_tuple(self) -> tuple:
        """The 4-tuple ``(t_d, t_c, t_b, t_a)``."""
        return (self.t_d, self.t_c, self.t_b, self.t_a)


def pairs_of(rows) -> List[SegmentPair]:
    """One :class:`SegmentPair` per row of an ``(n, 4)`` ident matrix
    ``(t_d, t_c, t_b, t_a)``, in row order.  ``tolist()`` hands the
    constructor Python floats, so the pairs are bit-identical to the
    stored timestamps."""
    return [SegmentPair(*t) for t in rows.tolist()]

"""Multi-tolerance tiered indexing (beyond-paper extension).

Section 6.1 observes: "If a query involves a larger magnitude of drop, a
larger ε is admissible and orders of magnitude of space saving can be
achieved."  A single SegDiff index must fix ε at build time, forcing the
most demanding future query to pay for every query.  A
:class:`TieredIndex` builds a small ladder of indexes at geometrically
spaced tolerances and routes each query to the *coarsest* tier whose
``2ε`` false-positive tolerance the caller accepts — deep-drop queries
run against an index an order of magnitude smaller and faster, while
precise queries still have the fine tier.  :class:`LiveTieredIndex` is
the same router over :class:`~repro.core.live.LiveIndex` tiers.

Every tier individually satisfies Theorem 1, so routing never loses a
true event; only the false-positive tolerance changes, and it is the
caller's explicit choice.
"""

from __future__ import annotations

import os
from contextlib import ExitStack
from typing import Dict, List, Optional, Sequence

from ..datagen.series import TimeSeries
from ..errors import InvalidParameterError
from ..types import SegmentPair
from .index import SegDiffIndex

__all__ = ["TieredIndex", "LiveTieredIndex"]


def _tier_label(epsilon: float) -> str:
    """A tier's name: its breaker label and its live subdirectory."""
    return f"tier-{epsilon:g}"


class TieredIndex:
    """A ladder of SegDiff indexes over the same series.

    Parameters
    ----------
    epsilons:
        Build tolerances, e.g. ``(0.1, 0.4, 1.6)``.  Sorted internally.
        Each tier is labelled ``tier-{eps:g}`` (its breaker name, and
        its subdirectory in a live ladder); tolerances whose labels
        collide are rejected.
    window:
        Shared query-span bound ``w``.
    """

    def __init__(
        self,
        epsilons: Sequence[float],
        window: float,
        resilience=None,
    ) -> None:
        eps = sorted(set(float(e) for e in epsilons))
        if not eps:
            raise InvalidParameterError("need at least one tolerance tier")
        if eps[0] < 0:
            raise InvalidParameterError("tolerances must be >= 0")
        for lo, hi in zip(eps, eps[1:]):
            if _tier_label(lo) == _tier_label(hi):
                raise InvalidParameterError(
                    f"tolerances {lo!r} and {hi!r} share the tier label "
                    f"{_tier_label(lo)!r}"
                )
        self.epsilons = eps
        self.window = float(window)
        #: Optional :class:`repro.engine.ResiliencePolicy` applied to
        #: every tier's query session (each tier gets its own breaker,
        #: labelled by tier).
        self.resilience = resilience
        self._tiers: Dict[float, object] = {}

    @classmethod
    def build(
        cls,
        series: TimeSeries,
        epsilons: Sequence[float],
        window: float,
        backend: str = "memory",
        resilience=None,
    ) -> "TieredIndex":
        """Build and finalize every tier over the same series."""
        tiered = cls(epsilons, window, resilience=resilience)
        tiered._open_tiers(
            lambda eps: SegDiffIndex.build(
                series, eps, window, backend=backend,
                resilience=resilience, name=_tier_label(eps),
            )
        )
        return tiered

    def _open_tiers(self, make) -> None:
        """``make(eps)`` every tier; on an error, close the tiers already
        made and re-raise it."""
        with ExitStack() as made:
            for eps in self.epsilons:
                self._tiers[eps] = made.enter_context(make(eps))
            made.pop_all()

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #

    def choose_tier(self, max_tolerance: Optional[float]) -> float:
        """The coarsest ε whose ``2ε`` bound fits ``max_tolerance``.

        ``max_tolerance`` is the caller's acceptable false-positive slack
        (same unit as the values): a returned period is guaranteed to
        contain an event within ``2ε`` of the threshold, so the chosen
        tier satisfies ``2ε <= max_tolerance``.  ``None`` means "use the
        finest tier".
        """
        if max_tolerance is None:
            return self.epsilons[0]
        if max_tolerance < 0:
            raise InvalidParameterError("max_tolerance must be >= 0")
        admissible = [e for e in self.epsilons if 2.0 * e <= max_tolerance]
        return admissible[-1] if admissible else self.epsilons[0]

    def tier(self, epsilon: float):
        """Direct access to one tier's index."""
        if epsilon not in self._tiers:
            raise InvalidParameterError(
                f"no tier at epsilon={epsilon}; tiers: {self.epsilons}"
            )
        return self._tiers[epsilon]

    def route(self, max_tolerance: Optional[float]):
        """The tier a query accepting ``max_tolerance`` runs on."""
        return self._tiers[self.choose_tier(max_tolerance)]

    # ------------------------------------------------------------------ #
    # search
    # ------------------------------------------------------------------ #

    def search_drops(
        self,
        t_threshold: float,
        v_threshold: float,
        max_tolerance: Optional[float] = None,
        mode: str = "index",
        **kw,
    ) -> List[SegmentPair]:
        """Drop search routed to the coarsest admissible tier.

        A natural ``max_tolerance`` is a fraction of the drop magnitude,
        e.g. ``abs(v_threshold) * 0.2`` — "I accept periods whose deepest
        drop is within 20 % of what I asked for".  ``mode`` and the
        remaining keywords (``cache``, ...) are the tier's own search
        options, passed through to the chosen tier unchanged.
        """
        return self.route(max_tolerance).search_drops(
            t_threshold, v_threshold, mode=mode, **kw
        )

    def search_jumps(
        self,
        t_threshold: float,
        v_threshold: float,
        max_tolerance: Optional[float] = None,
        mode: str = "index",
        **kw,
    ) -> List[SegmentPair]:
        """Jump search routed to the coarsest admissible tier."""
        return self.route(max_tolerance).search_jumps(
            t_threshold, v_threshold, mode=mode, **kw
        )

    def search_outcome(
        self,
        kind: str,
        t_threshold: float,
        v_threshold: float,
        max_tolerance: Optional[float] = None,
        mode: str = "index",
        **kw,
    ):
        """Routed search with the full resilience verdict.

        Same tier routing as :meth:`search_drops`, but returns the
        chosen tier's :class:`repro.engine.QueryOutcome` (COMPLETE /
        DEGRADED plus completeness report) so a tiered deployment can
        run under deadlines and degraded modes like a single index.
        Accepts the :meth:`SegDiffIndex.search_outcome` keywords
        (``timeout_ms``, ``degrade``, ``cache``...).
        """
        return self.route(max_tolerance).search_outcome(
            kind, t_threshold, v_threshold, mode=mode, **kw
        )

    # ------------------------------------------------------------------ #
    # introspection / lifecycle
    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[float, object]:
        """Per-tier index stats keyed by ε."""
        return {eps: idx.stats() for eps, idx in self._tiers.items()}

    def total_disk_bytes(self) -> int:
        """Disk footprint of the whole ladder."""
        return sum(s.disk_bytes for s in self.stats().values())

    def close(self) -> None:
        for index in self._tiers.values():
            index.close()
        self._tiers = {}

    def __enter__(self) -> "TieredIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class LiveTieredIndex(TieredIndex):
    """A ladder of :class:`~repro.core.live.LiveIndex` tiers.

    Every appended observation feeds every tier; queries route exactly
    like :class:`TieredIndex` but answer from each tier's partitioned
    live storage (so they see data up to the last closed segment, with
    snapshot isolation).  With a ``directory``, each tier seals into its
    own ``tier-{eps:g}/`` subdirectory and the whole ladder resumes from
    the *minimum* tier watermark — replay is idempotent per tier.
    ``search_outcome`` and ``total_disk_bytes`` need batch tiers.
    """

    def __init__(
        self,
        epsilons: Sequence[float],
        window: float,
        directory: Optional[str] = None,
        **live_kw,
    ) -> None:
        from .live import LiveIndex  # late: core.live imports the engine

        super().__init__(epsilons, window)
        self.directory = directory

        def make(eps: float) -> LiveIndex:
            if directory is None:
                return LiveIndex(eps, self.window, **live_kw)
            tier_dir = os.path.join(directory, _tier_label(eps))
            return LiveIndex.open_or_create(eps, self.window, tier_dir, **live_kw)

        self._open_tiers(make)

    # ------------------------------------------------------------------ #
    # ingest (fans out to every tier)
    # ------------------------------------------------------------------ #

    def append(self, t: float, v: float) -> None:
        for tier in self._tiers.values():
            tier.append(t, v)

    def append_array(self, ts, vs, **kw) -> None:
        for tier in self._tiers.values():
            tier.append_array(ts, vs, **kw)

    def mark_gap(self) -> None:
        for tier in self._tiers.values():
            tier.mark_gap()

    def seal(self) -> None:
        for tier in self._tiers.values():
            tier.seal()

    def finalize(self) -> None:
        for tier in self._tiers.values():
            tier.finalize()

    @property
    def watermark(self) -> Optional[float]:
        """The replay point: the minimum tier watermark (a producer
        resuming here is at-or-before every tier's skip horizon)."""
        marks = [t.watermark for t in self._tiers.values()]
        if any(m is None for m in marks):
            return None
        return min(marks)

    def snapshot(self, max_tolerance: Optional[float] = None):
        """A pinned snapshot of the routed tier."""
        return self.route(max_tolerance).snapshot()

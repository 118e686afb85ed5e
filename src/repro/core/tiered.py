"""Multi-tolerance tiered indexing (beyond-paper extension).

Section 6.1 observes: "If a query involves a larger magnitude of drop, a
larger ε is admissible and orders of magnitude of space saving can be
achieved."  A single SegDiff index must fix ε at build time, forcing the
most demanding future query to pay for every query.  A
:class:`TieredIndex` builds a small ladder of indexes at geometrically
spaced tolerances and routes each query to the *coarsest* tier whose
``2ε`` false-positive tolerance the caller accepts — deep-drop queries
run against an index an order of magnitude smaller and faster, while
precise queries still have the fine tier.

Every tier individually satisfies Theorem 1, so routing never loses a
true event; only the false-positive tolerance changes, and it is the
caller's explicit choice.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import Dict, List, Optional, Sequence

from ..datagen.series import TimeSeries
from ..errors import InvalidParameterError
from ..types import SegmentPair
from .index import SegDiffIndex

__all__ = ["TieredIndex"]


class TieredIndex:
    """A ladder of SegDiff indexes over the same series.

    Parameters
    ----------
    epsilons:
        Build tolerances, e.g. ``(0.1, 0.4, 1.6)``.  Sorted internally;
        duplicates collapse into one tier.
    window:
        Shared query-span bound ``w``.
    """

    def __init__(
        self,
        epsilons: Sequence[float],
        window: float,
    ) -> None:
        eps = sorted(set(float(e) for e in epsilons))
        if not eps:
            raise InvalidParameterError("need at least one tolerance tier")
        if eps[0] < 0:
            raise InvalidParameterError("tolerances must be >= 0")
        self.epsilons = eps
        self.window = float(window)
        self._tiers: Dict[float, SegDiffIndex] = {}

    @classmethod
    def build(
        cls,
        series: TimeSeries,
        epsilons: Sequence[float],
        window: float,
        backend: str = "memory",
    ) -> "TieredIndex":
        """Build and finalize every tier over the same series.  On an
        error, the tiers already built are closed and it is re-raised."""
        tiered = cls(epsilons, window)
        with ExitStack() as built:
            for eps in tiered.epsilons:
                tiered._tiers[eps] = built.enter_context(
                    SegDiffIndex.build(series, eps, window, backend=backend)
                )
            built.pop_all()
        return tiered

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
        """Routed search returning the chosen tier's
        :class:`repro.engine.QueryOutcome`.

        Same tier routing as :meth:`search_drops`.  Accepts the
        :meth:`SegDiffIndex.search_outcome` keywords (``timeout_ms``,
        ``cache``, ``data``...).
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

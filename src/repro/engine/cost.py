"""Cost-based scan-vs-index plan choice, per operator and per backend.

The paper's Figures 19-24 show that forced B-tree access *hurts* on hard
queries — the large-result region of the query plane — while it wins on
selective ones.  This module closes the gap the paper leaves to the
operator, with two layers:

* a classical **selectivity estimator**: a cached row sample from the
  point-feature table of the queried search type; a query's selectivity
  is the sample fraction matching the point predicate (the historical
  ``choose_mode`` rule: selectivity above ``scan_threshold`` → scan).
  The sample is the store's ``sample_points``: every ``N // n``-th row,
  sliced from the table's array on memory and from the columnar view's
  block on MiniDB (the block a scan or clustered probe then reuses),
  selected by rowid stride in SQL on SQLite;
* a **per-operator cost model**: each backend advertises three unit
  costs (sequential row visit, index-entry visit, matching-row fetch —
  the latter a page read on MiniDB, a rowid lookup on SQLite, a row of
  a zero-copy Δt-clustered slice in memory), and ``choose_access``
  compares

  .. code-block:: text

      cost(scan)  = N · seq_row
      cost(index) = N · sel(Δt≤T) · index_entry + N · sel(match) · fetch

  so the point and line operators of one query may legitimately pick
  different access paths.

Samples go stale when the store grows; ``SegDiffIndex`` wires
``invalidate()`` into ``append``/``checkpoint``/``finalize`` so
post-append estimates never come from pre-append samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..core.queries import point_mask
from ..errors import InvalidParameterError
from .plan import LineCrossOp, PointRangeOp, Query, QueryPlan, build_plan

__all__ = ["BackendCosts", "BACKEND_COSTS", "CostModel"]


@dataclass(frozen=True)
class BackendCosts:
    """Unit costs of one backend's physical primitives.

    All values are relative to one sequential row visit on the same
    backend, so only the *ratios* matter for plan choice.
    """

    seq_row: float = 1.0
    index_entry: float = 0.5
    fetch: float = 4.0


#: Per-backend constants, keyed by ``FeatureStore.BACKEND``.  The fetch
#: cost is what separates them: materializing one matching row through a
#: secondary index is a row of a zero-copy Δt-clustered prefix slice in
#: memory, a B-tree rowid lookup on SQLite, and a random page read
#: (possibly evicting a hot page) on MiniDB.  The memory constant dates
#: from when a probe gathered the table through its sort permutation;
#: it is kept as it was, since re-tuning any constant changes plans.
BACKEND_COSTS: Dict[str, BackendCosts] = {
    "memory": BackendCosts(seq_row=1.0, index_entry=0.4, fetch=2.0),
    "sqlite": BackendCosts(seq_row=1.0, index_entry=0.3, fetch=6.0),
    "minidb": BackendCosts(seq_row=1.0, index_entry=0.5, fetch=20.0),
}


class CostModel:
    """Chooses physical access paths for a query against one store.

    Parameters
    ----------
    store:
        Any feature store exposing ``sample_points(kind, n)`` and
        ``counts()``.
    sample_size:
        Rows sampled per search type (drawn lazily, cached).
    scan_threshold:
        Estimated selectivity above which the classical whole-query rule
        (:meth:`choose_mode`) picks a scan.  The default of 2 % matches
        the rule of thumb for secondary B-trees over row stores.
    costs:
        Backend unit costs; resolved from ``store.BACKEND`` when omitted.
    """

    def __init__(
        self,
        store,
        sample_size: int = 512,
        scan_threshold: float = 0.02,
        costs: Optional[BackendCosts] = None,
    ) -> None:
        if sample_size < 1:
            raise InvalidParameterError("sample_size must be >= 1")
        if not (0.0 < scan_threshold < 1.0):
            raise InvalidParameterError("scan_threshold must be in (0, 1)")
        self.store = store
        self.sample_size = sample_size
        self.scan_threshold = scan_threshold
        if costs is None:
            backend = getattr(store, "BACKEND", "memory")
            costs = BACKEND_COSTS.get(backend, BackendCosts())
        self.costs = costs
        self._samples: dict = {}

    # ------------------------------------------------------------------ #
    # sampling / selectivity
    # ------------------------------------------------------------------ #

    def _sample(self, kind: str) -> Optional[np.ndarray]:
        if kind not in self._samples:
            self._samples[kind] = self.store.sample_points(
                kind, self.sample_size
            )
        return self._samples[kind]

    def invalidate(self) -> None:
        """Drop cached samples (called automatically after appends)."""
        self._samples = {}

    def estimate_selectivity(
        self, kind: str, t_threshold: float, v_threshold: float
    ) -> float:
        """Estimated fraction of point features the query matches.

        Falls back to 1.0 (pessimistic → scan) when the store is empty,
        which is also the cheapest plan for an empty store.
        """
        sample = self._sample(kind)
        if sample is None or len(sample) == 0:
            return 1.0
        mask = point_mask(
            kind, sample[:, 0], sample[:, 1], t_threshold, v_threshold
        )
        return float(mask.mean())

    def estimate_dt_selectivity(self, kind: str, t_threshold: float) -> float:
        """Estimated fraction of rows an index probe on ``Δt <= T`` visits."""
        sample = self._sample(kind)
        if sample is None or len(sample) == 0:
            return 1.0
        return float((sample[:, 0] <= t_threshold).mean())

    # ------------------------------------------------------------------ #
    # plan choice
    # ------------------------------------------------------------------ #

    def choose_mode(
        self, kind: str, t_threshold: float, v_threshold: float
    ) -> str:
        """Whole-query rule: ``"scan"`` for estimated-hard queries.

        The classical selectivity rule of thumb, and the summary
        ``chosen_mode`` EXPLAIN reports.
        """
        selectivity = self.estimate_selectivity(
            kind, t_threshold, v_threshold
        )
        return "scan" if selectivity > self.scan_threshold else "index"

    def operator_costs(self, op) -> Dict[str, float]:
        """Estimated cost of each access path for one operator."""
        counts = self.store.counts()
        n = getattr(counts, op.table)
        sel_dt = self.estimate_dt_selectivity(op.kind, op.t_threshold)
        if isinstance(op, PointRangeOp):
            sel_match = self.estimate_selectivity(
                op.kind, op.t_threshold, op.v_threshold
            )
        else:
            # line features are rarer and their crossing predicate is far
            # more selective than the point predicate; the dt prune is
            # the dominant index saving, so bound the match fraction by
            # the dt selectivity (no dv sample exists for line tables)
            sel_match = 0.1 * sel_dt
        c = self.costs
        return {
            "scan": n * c.seq_row,
            "index": n * (sel_dt * c.index_entry + sel_match * c.fetch),
        }

    def choose_access(self, op) -> str:
        """The cheaper of scan/index for one operator on this backend."""
        costs = self.operator_costs(op)
        return "index" if costs["index"] < costs["scan"] else "scan"

    def plan(
        self, query: Query, mode: str = "auto", t_range=None
    ) -> QueryPlan:
        """Build the §4.4 plan for ``query``.

        ``mode="auto"`` picks each operator's access path independently
        with the cost model; any other mode forces that access path on
        every operator (``grid`` applies to the point operator only).
        ``t_range`` restricts results to pairs overlapping the closed
        time interval (and lets a partitioned executor prune partitions).
        """
        if mode != "auto":
            return build_plan(query, point_access=mode, t_range=t_range)
        point = PointRangeOp(
            query.kind, query.t_threshold, query.v_threshold, "scan"
        )
        line = LineCrossOp(
            query.kind, query.t_threshold, query.v_threshold, "scan"
        )
        return QueryPlan(
            query=query,
            point_op=PointRangeOp(
                query.kind,
                query.t_threshold,
                query.v_threshold,
                self.choose_access(point),
            ),
            line_op=LineCrossOp(
                query.kind,
                query.t_threshold,
                query.v_threshold,
                self.choose_access(line),
            ),
            t_range=t_range,
        )

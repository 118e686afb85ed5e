"""Tests for the unified query engine: plans, cost model, sessions,
batched execution, EXPLAIN, and cross-backend equivalence."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.index import SegDiffIndex
from repro.core.queries import DropQuery, JumpQuery
from repro.core.tiered import TieredIndex
from repro.datagen import TimeSeries, random_walk_series
from repro.engine import (
    BACKEND_COSTS,
    CostModel,
    ExplainReport,
    LineCrossOp,
    PointRangeOp,
    QueryPlan,
    QuerySession,
    RefineOp,
    ShardedIndex,
    build_plan,
)
from repro.errors import InvalidParameterError

HOUR = 3600.0
BACKENDS = ("memory", "sqlite", "minidb")


@pytest.fixture(scope="module")
def walk_series():
    return random_walk_series(400, dt=300.0, step_std=0.8, seed=71)


@pytest.fixture(scope="module")
def indexes(walk_series):
    built = {
        b: SegDiffIndex.build(walk_series, 0.2, 8 * HOUR, backend=b)
        for b in BACKENDS
    }
    yield built
    for idx in built.values():
        idx.close()


QUERIES = [
    DropQuery(HOUR, -2.0),
    DropQuery(4 * HOUR, -0.5),
    JumpQuery(2 * HOUR, 1.0),
]


class TestPlans:
    def test_build_plan_structure(self):
        plan = build_plan(DropQuery(HOUR, -2.0), point_access="index")
        assert isinstance(plan, QueryPlan)
        assert plan.point_op == PointRangeOp("drop", HOUR, -2.0, "index")
        assert plan.line_op == LineCrossOp("drop", HOUR, -2.0, "index")
        assert plan.refine_op is None

    def test_grid_plan_uses_index_lines(self):
        plan = build_plan(DropQuery(HOUR, -2.0), point_access="grid")
        assert plan.point_op.access == "grid"
        assert plan.line_op.access == "index"

    def test_invalid_access_rejected(self):
        with pytest.raises(InvalidParameterError):
            build_plan(DropQuery(HOUR, -2.0), point_access="hash")
        with pytest.raises(InvalidParameterError):
            build_plan(DropQuery(HOUR, -2.0), line_access="grid")

    def test_describe_renders_operators(self):
        plan = build_plan(
            DropQuery(HOUR, -2.0), point_access="scan", refine=RefineOp()
        )
        text = plan.describe()
        assert "PointRangeOp" in text and "LineCrossOp" in text
        assert "RefineOp" in text and "UnionDedupOp" in text


class TestCostModel:
    def test_backend_costs_exist_for_all_backends(self, indexes):
        for backend, index in indexes.items():
            assert index.store.BACKEND == backend
            assert backend in BACKEND_COSTS

    def test_operator_costs_orders_access_paths(self, indexes):
        cost = CostModel(indexes["memory"].store)
        selective = PointRangeOp("drop", 600.0, -1e6, "scan")
        hard = PointRangeOp("drop", 8 * HOUR, -1e-9, "scan")
        assert cost.choose_access(selective) == "index"
        assert cost.choose_access(hard) == "scan"

    def test_auto_plan_may_split_access_paths(self, indexes):
        cost = CostModel(indexes["memory"].store)
        plan = cost.plan(DropQuery(8 * HOUR, -1e-9), mode="auto")
        assert plan.point_op.access in ("scan", "index")
        assert plan.line_op.access in ("scan", "index")

    def test_forced_mode_bypasses_model(self, indexes):
        cost = CostModel(indexes["memory"].store)
        plan = cost.plan(DropQuery(HOUR, -2.0), mode="scan")
        assert plan.point_op.access == "scan"
        assert plan.line_op.access == "scan"


class TestSessionSearch:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("query", QUERIES, ids=str)
    def test_modes_agree_within_backend(self, indexes, backend, query):
        sess = indexes[backend].session
        scan = sess.search(query, mode="scan")
        assert sess.search(query, mode="index") == scan
        assert sess.search(query, mode="auto") == scan

    def test_refine_through_session(self, indexes, walk_series):
        sess = indexes["memory"].session
        hits = sess.search(DropQuery(HOUR, -2.0), data=walk_series)
        pairs = sess.search(DropQuery(HOUR, -2.0))
        assert len(hits) == len(pairs)
        assert all(hasattr(h, "witness") for h in hits)

    def test_invalid_mode_rejected(self, indexes):
        with pytest.raises(InvalidParameterError):
            indexes["memory"].session.search(QUERIES[0], mode="btree")

    def test_concurrent_session_reads_agree(self, indexes):
        # MiniDB reads are serialized by the session lock; this must be
        # safe (and correct) from many threads
        sess = indexes["minidb"].session
        expected = sess.search(DropQuery(HOUR, -2.0))
        results = []
        errors = []

        def worker():
            try:
                results.append(sess.search(DropQuery(HOUR, -2.0)))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert all(r == expected for r in results)


class TestBatchedExecution:
    GRID = [
        DropQuery(t * HOUR, v)
        for t in (0.5, 1.0, 4.0, 8.0)
        for v in (-3.0, -1.0)
    ] + [JumpQuery(2 * HOUR, 0.5)]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("mode", ["auto", "scan", "index"])
    def test_batch_equals_loop(self, indexes, backend, mode):
        sess = indexes[backend].session
        assert sess.search_batch(self.GRID, mode=mode) == [
            sess.search(q, mode=mode) for q in self.GRID
        ]

    def test_batch_rejects_grid_mode(self, indexes):
        with pytest.raises(InvalidParameterError):
            indexes["memory"].session.search_batch(self.GRID, mode="grid")

    def test_index_facade(self, indexes):
        idx = indexes["memory"]
        assert idx.search_batch(self.GRID) == [
            idx.session.search(q, mode="auto") for q in self.GRID
        ]


class TestExplain:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_reports_estimates_and_actuals(self, indexes, backend):
        report = indexes[backend].explain_report("drop", HOUR, -2.0)
        assert isinstance(report, ExplainReport)
        assert report.backend == backend
        assert report.chosen_mode in ("scan", "index")
        assert len(report.operators) == 2
        point, line = report.operators
        assert point.operator == "point_range"
        assert line.operator == "line_cross"
        for op in report.operators:
            assert op.estimated_rows >= 0
            assert 0 <= op.actual_rows <= op.rows_fetched
        assert report.n_pairs == len(
            indexes[backend].search_drops(HOUR, -2.0)
        )

    def test_pages_read_only_on_minidb(self, indexes):
        assert indexes["minidb"].explain_report("drop", HOUR, -2.0).pages_read > 0
        assert indexes["memory"].explain_report("drop", HOUR, -2.0).pages_read is None
        assert indexes["sqlite"].explain_report("drop", HOUR, -2.0).pages_read is None

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_render_mentions_plan(self, indexes, backend):
        text = indexes[backend].explain_report("drop", HOUR, -2.0).render()
        assert "EXPLAIN drop search" in text
        assert "point_range" in text and "line_cross" in text
        assert "est_rows" in text and "actual_rows" in text

    def test_legacy_dict_explain_kept(self, indexes):
        plan = indexes["sqlite"].explain("drop", HOUR, -2.0)
        for key in (
            "query", "epsilon", "window", "false_positive_bound",
            "estimated_selectivity", "estimated_matches", "chosen_mode",
            "point_rows", "line_rows", "plan",
        ):
            assert key in plan
        assert isinstance(plan["plan"], QueryPlan)


class TestInvalidation:
    def test_append_invalidates_session_samples(self):
        series = random_walk_series(150, dt=300.0, step_std=0.8, seed=5)
        index = SegDiffIndex(0.2, 4 * HOUR)
        try:
            index.ingest(series)
            index.checkpoint()
            index.planner.estimate_selectivity("drop", HOUR, -2.0)
            assert index.planner._samples
            t0 = float(series.times[-1])
            for i in range(1, 60):
                index.append(t0 + 300.0 * i, float(np.sin(i)) * 3.0)
            assert not index.planner._samples, (
                "appending must invalidate cached selectivity samples"
            )
            index.finalize()
            assert not index.planner._samples
        finally:
            index.close()


class TestFacadePassThrough:
    def test_tiered_accepts_engine_options(self, walk_series):
        tiered = TieredIndex.build(walk_series, (0.1, 0.4), 8 * HOUR)
        try:
            base = tiered.search_drops(HOUR, -2.0)
            assert tiered.search_drops(HOUR, -2.0, mode="auto") == base
            assert (
                tiered.search_drops(HOUR, -2.0, mode="scan", cache="warm")
                == base
            )
            jumps = tiered.search_jumps(HOUR, 2.0)
            assert tiered.search_jumps(HOUR, 2.0, mode="auto") == jumps
        finally:
            tiered.close()

    def test_transect_accepts_engine_options(self, walk_series):
        shifted = TimeSeries(walk_series.times, walk_series.values - 0.5)
        transect = ShardedIndex.build_transect(
            {"a": walk_series, "b": shifted}, 0.2, 8 * HOUR
        )
        try:
            for name in ("a", "b"):
                base = transect.search_drops(HOUR, -2.0, sensors=[name])
                assert transect.search_drops(
                    HOUR, -2.0, sensors=[name], mode="auto"
                ) == base
                assert transect.search_drops(
                    HOUR, -2.0, sensors=[name], cache="warm"
                ) == base
            corr = transect.search_corroborated(HOUR, -2.0, min_sensors=1)
            assert (
                transect.search_corroborated(
                    HOUR, -2.0, min_sensors=1, mode="auto"
                )
                == corr
            )
        finally:
            transect.close()


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    v_thr=st.floats(min_value=-6.0, max_value=-0.25),
    t_minutes=st.integers(min_value=10, max_value=240),
)
@settings(max_examples=8, deadline=None)
def test_cross_backend_differential(seed, v_thr, t_minutes):
    """All three backends return the identical segment-pair set in both
    scan and index mode — the engine's single union/dedup implementation
    cannot diverge per backend."""
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.uniform(120.0, 600.0, size=50))
    v = np.cumsum(rng.normal(0.0, 1.5, size=50))
    series = TimeSeries(t, v)
    built = [
        SegDiffIndex.build(series, 0.3, 4 * HOUR, backend=b) for b in BACKENDS
    ]
    try:
        t_thr = t_minutes * 60.0
        drop = DropQuery(t_thr, v_thr)
        jump = JumpQuery(t_thr, -v_thr)
        reference_drop = built[0].store.search(drop, mode="scan")
        reference_jump = built[0].store.search(jump, mode="scan")
        for index in built:
            for mode in ("scan", "index"):
                assert index.store.search(drop, mode=mode) == reference_drop
                assert index.store.search(jump, mode=mode) == reference_jump
    finally:
        for index in built:
            index.close()


def test_session_lock_only_when_needed():
    series = random_walk_series(80, dt=300.0, step_std=0.8, seed=3)
    mem = SegDiffIndex.build(series, 0.2, 4 * HOUR, backend="memory")
    mini = SegDiffIndex.build(series, 0.2, 4 * HOUR, backend="minidb")
    try:
        assert QuerySession(mem.store)._lock is None
        assert QuerySession(mini.store)._lock is not None
    finally:
        mem.close()
        mini.close()

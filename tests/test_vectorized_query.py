"""The read contract: ``(m, k)`` blocks are how rows leave a store.

Every answer the engine assembles from the four ``*_array`` primitives
must equal the scalar §4.4 oracle (``tests/oracle.py``: ``point_match``
/ ``line_match`` row by row over rows read without any ``*_array``
call): bit-identical pairs in the same order, on every backend, through
loops, batches, live snapshots and shards.  EXPLAIN row counts must be
the tables' own, deadlines must fire inside a block scan, degraded
candidates-only answers must stay Theorem-1 supersets, and the MiniDB
columnar view must never serve a block that predates an append.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.corners import collect_features
from repro.core.index import SegDiffIndex
from repro.core.live import LiveIndex
from repro.core.parallelogram import Parallelogram
from repro.core.queries import (
    DropQuery,
    JumpQuery,
    line_match,
    point_match,
)
from repro.datagen import TimeSeries, random_walk_series
from repro.engine import (
    QuerySession,
    ResiliencePolicy,
    ResultStatus,
    ShardedIndex,
)
from repro.errors import QueryTimeout
from repro.storage.faults import FaultyStoreWrapper, ReadFaultPolicy
from repro.storage.minidb import MiniDbFeatureStore
from repro.types import DataSegment

from .oracle import oracle_pairs, table_rows

HOUR = 3600.0
BACKENDS = ("memory", "sqlite", "minidb")

DROP = DropQuery(HOUR, -2.0)


@pytest.fixture(scope="module")
def walk_series():
    return random_walk_series(500, dt=300.0, step_std=0.8, seed=23)


@pytest.fixture(scope="module", params=BACKENDS)
def backend_session(request, walk_series):
    index = SegDiffIndex.build(
        walk_series, 0.2, 8 * HOUR, backend=request.param
    )
    yield QuerySession(index.store)
    index.close()


def _query(kind, t_hours, v):
    if kind == "drop":
        return DropQuery(t_hours * HOUR, -abs(v))
    return JumpQuery(t_hours * HOUR, abs(v))


query_strategy = st.builds(
    _query,
    st.sampled_from(["drop", "jump"]),
    st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
)


# ---------------------------------------------------------------------- #
# differential: engine ≡ scalar oracle on persisted stores
# ---------------------------------------------------------------------- #


class TestDifferential:
    @settings(deadline=None, max_examples=20)
    @given(grid=st.lists(query_strategy, min_size=1, max_size=4),
           mode=st.sampled_from(["scan", "index"]))
    def test_loop_and_batch_match_scalar(self, backend_session, grid, mode):
        sess = backend_session
        expect = [oracle_pairs([sess.store], q) for q in grid]
        assert [sess.search(q, mode=mode) for q in grid] == expect
        assert sess.search_batch(grid, mode=mode) == expect

    @settings(deadline=None, max_examples=8)
    @given(q=query_strategy, mode=st.sampled_from(["scan", "index"]))
    def test_explain_row_counts_match_scalar(self, backend_session, q, mode):
        """EXPLAIN runs with ``pushdown=False``, so ``rows_fetched`` is
        the access path's raw candidate count: the whole table on a
        scan, the ``dt <= T`` prefix on a probe."""
        sess = backend_session
        report = sess.explain(q, mode=mode)
        assert report.n_pairs == len(oracle_pairs([sess.store], q))
        kind, t, v = q.kind, q.t_threshold, q.v_threshold
        points = table_rows(sess.store, f"{kind}_points")
        lines = table_rows(sess.store, f"{kind}_lines")
        matched = (
            sum(point_match(kind, r[0], r[1], t, v) for r in points),
            sum(line_match(kind, *r[:4], t, v) for r in lines),
        )
        for op, rows, n_matched in zip(
            report.operators, (points, lines), matched
        ):
            assert op.access == mode
            assert op.actual_rows == n_matched
            assert op.rows_fetched == (
                len(rows) if mode == "scan"
                else sum(r[0] <= t for r in rows)
            )

    def test_refined_answers_match_scalar(self, backend_session,
                                          walk_series):
        sess = backend_session
        candidates = set(oracle_pairs([sess.store], DROP))
        for mode in ("scan", "index"):
            hits = sess.search(DROP, mode=mode, data=walk_series)
            assert hits and {hit.pair for hit in hits} <= candidates
            assert hits == sess.search(DROP, mode="scan", data=walk_series)


# ---------------------------------------------------------------------- #
# differential: live snapshots under random seal schedules, shards
# ---------------------------------------------------------------------- #


class TestLiveSnapshots:
    @settings(deadline=None, max_examples=10)
    @given(data=st.data())
    def test_snapshot_vectorized_equals_scalar(self, data):
        """Live snapshot ≡ the oracle over a batch build of the same
        observations, whatever the seal schedule."""
        seed = data.draw(st.integers(0, 2**16))
        n = data.draw(st.integers(min_value=120, max_value=260))
        series = random_walk_series(n, dt=300.0, step_std=0.8, seed=seed)
        live = LiveIndex(0.2, 8 * HOUR, seal_rows=2**62)
        batch = SegDiffIndex(0.2, 8 * HOUR)
        try:
            lo = 0
            while lo < n:
                chunk = data.draw(st.integers(min_value=20, max_value=80))
                hi = min(n, lo + chunk)
                live.append_array(series.times[lo:hi], series.values[lo:hi])
                lo = hi
                if lo < n and data.draw(st.booleans()):
                    live.seal()
            batch.ingest_array(series.times, series.values)
            batch.checkpoint()
            queries = [DROP, JumpQuery(2 * HOUR, 0.5),
                       DropQuery(4 * HOUR, -0.5)]
            expect = [oracle_pairs([batch.store], q) for q in queries]
            with live.snapshot() as snap:
                for mode in ("scan", "index"):
                    assert [
                        snap.execute(q, mode=mode).pairs for q in queries
                    ] == expect
                    assert [
                        r.pairs
                        for r in snap.search_batch_results(queries, mode=mode)
                    ] == expect
        finally:
            live.close()
            batch.close()


class TestSharded:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_sharded_pairs_equal_oracle_over_shard_rows(self, backend):
        """The scatter-gather merge is the §4.4 union/dedup over the
        shards' rows: same pairs, same order."""
        # five half-day walks a week apart: shards split at the gaps
        episodes = [
            random_walk_series(150, dt=300.0, step_std=0.8, seed=seed)
            for seed in range(5)
        ]
        series = TimeSeries(
            times=np.concatenate([
                ep.times + i * 7 * 24 * HOUR for i, ep in enumerate(episodes)
            ]),
            values=np.concatenate([ep.values for ep in episodes]),
        )
        with ShardedIndex.build(
            series, 0.2, 8 * HOUR, n_shards=3, max_gap=24 * HOUR,
            backend=backend, max_workers=2,
        ) as sharded:
            stores = [shard.primary.store for shard in sharded.shards]
            for q in (DROP, JumpQuery(2 * HOUR, 0.5)):
                expect = oracle_pairs(stores, q)
                assert expect
                for mode in ("scan", "index"):
                    outcome = sharded.search_outcome(
                        q.kind, q.t_threshold, q.v_threshold, mode=mode
                    )
                    assert outcome.status is ResultStatus.COMPLETE
                    assert outcome.pairs == expect


# ---------------------------------------------------------------------- #
# resilience on the block path
# ---------------------------------------------------------------------- #


class TestResilienceOnArrays:
    def test_hang_mid_array_scan_respects_deadline(self, walk_series):
        index = SegDiffIndex.build(
            walk_series, 0.2, 8 * HOUR, backend="memory"
        )
        try:
            # the first primitive call hangs, i.e. inside a block read
            wrapper = FaultyStoreWrapper(
                index.store,
                ReadFaultPolicy(hang_at={1}, hang_slice_s=0.01),
            )
            sess = QuerySession(wrapper)
            t0 = time.monotonic()
            with pytest.raises(QueryTimeout):
                sess.search(DROP, mode="index", timeout_ms=150.0)
            # budget 0.15s + one 0.01s hang slice + CI headroom
            assert time.monotonic() - t0 < 2.0
            assert wrapper.faults_injected == 1
        finally:
            index.close()

    def test_degraded_candidates_superset_on_vectorized_path(
        self, walk_series
    ):
        index = SegDiffIndex.build(
            walk_series, 0.2, 8 * HOUR, backend="memory"
        )
        try:
            full = QuerySession(index.store).search(
                DROP, mode="index", data=walk_series
            )
            policy = ResiliencePolicy(
                timeout_ms=60_000.0, degrade="candidates",
                degrade_margin_ms=120_000.0,
            )
            sess = QuerySession(index.store, resilience=policy)
            outcome = sess.search_outcome(
                DROP, mode="index", data=walk_series
            )
            assert outcome.status is ResultStatus.DEGRADED
            assert outcome.pairs == oracle_pairs([index.store], DROP)
            # zero false negatives (Theorem 1): candidates ⊇ refined
            assert {hit.pair for hit in full} <= set(outcome.pairs)
        finally:
            index.close()


# ---------------------------------------------------------------------- #
# MiniDB columnar view: write invalidation
# ---------------------------------------------------------------------- #


def _feature_sets(epsilon=0.3):
    chains = [
        (DataSegment(0, 0, 10, 8), DataSegment(10, 8, 20, -5)),
        (DataSegment(10, 8, 20, -5), DataSegment(20, -5, 35, -2)),
        (DataSegment(20, -5, 35, -2), DataSegment(35, -2, 50, 9)),
        (DataSegment(0, 0, 10, 8), DataSegment(20, -5, 35, -2)),
    ]
    return [
        collect_features(Parallelogram.from_segments(cd, ab), epsilon)
        for cd, ab in chains
    ]


class TestColumnarInvalidation:
    def test_append_after_scan_shows_fresh_rows(self):
        store = MiniDbFeatureStore()
        try:
            sets = _feature_sets()
            for fs in sets[:2]:
                store.add(fs)
            first = store.scan_points_array("drop")
            assert not first.flags.writeable
            assert first.tolist() == [
                list(r) for r in table_rows(store, "drop_points")
            ]
            # cached serve returns the identical block
            assert np.array_equal(store.scan_points_array("drop"), first)
            for fs in sets[2:]:
                store.add(fs)
            second = store.scan_points_array("drop")
            assert second.shape[0] > first.shape[0]
            assert second.tolist() == [
                list(r) for r in table_rows(store, "drop_points")
            ]
        finally:
            store.close()

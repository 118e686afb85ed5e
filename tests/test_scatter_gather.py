"""The one scatter–gather: a shard is a partition.

``executor._scatter`` / ``_gather`` serve both the live tier's partition
entry points and ``ShardedIndex.search_outcome``.  These tests drive the
*same* child outcomes through both and hold them to one verdict, pin the
scatter policy (shards and partitions inline), and pin the race
fix that came with the unification: a partition's planning runs inside
its read lock.
"""

import threading

import numpy as np
import pytest

from repro.core.index import SegDiffIndex
from repro.core.live import LiveSnapshot
from repro.core.queries import DropQuery
from repro.datagen import random_walk_series
from repro.engine import ResultStatus, ShardedIndex, executor
from repro.engine.executor import OperatorStats
from repro.engine.plan import build_plan
from repro.engine.resilience import QueryOutcome
from repro.engine.sharding import Shard, ShardSpec
from repro.errors import StorageError
from repro.types import SegmentPair

QUERY = DropQuery(3600.0, -1.0)

#: Canned child answers, keyed by child id: an ident matrix + status, or
#: the error that loses the child.  "a" and "b" overlap in one row.
ROWS = {
    "a": np.array([[0.0, 1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0]]),
    "b": np.array([[4.0, 5.0, 6.0, 7.0], [8.0, 9.0, 10.0, 11.0]]),
}
OUTCOMES = {
    "a": ResultStatus.COMPLETE,
    "b": ResultStatus.DEGRADED,
    "c": StorageError("disk on fire"),
}


def _pairs(rows):
    return [SegmentPair(*t) for t in rows.tolist()]


class _StubPartition:
    """Duck-typed partition whose ``store`` is just its id."""

    read_lock = None

    def __init__(self, pid, t_min=0.0, t_max=100.0):
        self.partition_id = self.store = pid
        self.bounds = (t_min, t_max)

    def overlaps_time(self, t_range):
        return t_range is None or not (
            self.bounds[1] < t_range[0] or self.bounds[0] > t_range[1]
        )


class _StubReplica:
    """Duck-typed shard replica answering from the canned outcomes."""

    def __init__(self, sid, threads):
        self.sid, self.threads = sid, threads

    def search_outcome(self, kind, t_threshold, v_threshold, **kw):
        self.threads.append(threading.current_thread().name)
        outcome = OUTCOMES[self.sid]
        if isinstance(outcome, BaseException):
            raise outcome
        rows = ROWS[self.sid]
        return QueryOutcome(rows=rows, status=outcome)

    def close(self):
        pass


@pytest.fixture()
def threads():
    return []


@pytest.fixture()
def fake_execute(monkeypatch, threads):
    """``executor.execute`` answering from the canned outcomes."""

    def fake(plan, store, **kw):
        threads.append(threading.current_thread().name)
        outcome = OUTCOMES[store]
        if isinstance(outcome, BaseException):
            raise outcome
        rows = ROWS[store]
        stats = [
            OperatorStats("point_range", "drop_points", "scan", 5, 2),
            OperatorStats("line_cross", "drop_lines", "scan", 3, 0),
        ]
        return QueryOutcome(rows=rows, op_stats=stats, status=outcome)

    monkeypatch.setattr(executor, "execute", fake)


def _via_partitions(ids, t_range=None):
    return executor.execute_partitioned(
        QUERY,
        lambda part: build_plan(QUERY, point_access="scan"),
        [_StubPartition(pid) for pid in ids],
        t_range=t_range,
    )


def _via_shards(ids, threads, t_range=None):
    shards = [
        Shard(ShardSpec(sid, 0.0, 100.0), [_StubReplica(sid, threads)])
        for sid in ids
    ]
    with ShardedIndex(shards, 0.2, 3600.0) as sharded:
        return sharded.search_outcome("drop", 3600.0, -1.0, t_range=t_range)


def _assert_same_verdict(part, shard):
    assert part.status is shard.status
    assert part.completeness.finished == shard.completeness.finished
    assert part.completeness.unfinished == shard.completeness.unfinished
    assert np.array_equal(part.rows, shard.rows)
    assert part.pairs == shard.pairs
    assert type(part.error) is type(shard.error)


class TestOneVerdict:
    """The same children give the same verdict through either door."""

    def test_ok_degraded_lost(self, fake_execute, threads):
        part = _via_partitions("abc")
        shard = _via_shards("abc", threads)
        _assert_same_verdict(part, shard)
        assert part.status is ResultStatus.DEGRADED
        assert part.completeness.finished == ("a", "b")
        # lost children are named by id, not by position
        assert part.completeness.unfinished == ("c",)
        assert "c" in part.completeness.reason
        assert isinstance(part.error, StorageError)
        # the union of the survivors, deduplicated, in §4.4 order
        assert part.rows.tolist() == [
            [0.0, 1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0],
            [8.0, 9.0, 10.0, 11.0],
        ]
        # row counts are summed over the partitions that answered
        assert [s.rows_fetched for s in part.op_stats] == [10, 6]
        assert part.partitions_scanned == 3

    def test_degraded_child_alone_degrades(self, fake_execute, threads):
        part, shard = _via_partitions("ab"), _via_shards("ab", threads)
        _assert_same_verdict(part, shard)
        assert part.status is ResultStatus.DEGRADED
        assert part.completeness.unfinished == ()
        assert part.error is None

    def test_all_ok_is_complete(self, fake_execute, threads):
        part, shard = _via_partitions("a"), _via_shards("a", threads)
        _assert_same_verdict(part, shard)
        assert part.status is ResultStatus.COMPLETE
        assert part.completeness.finished == ("a",)

    def test_all_lost_is_failed(self, fake_execute, threads):
        part, shard = _via_partitions("c"), _via_shards("c", threads)
        _assert_same_verdict(part, shard)
        assert part.status is ResultStatus.FAILED
        assert part.pairs == []
        assert part.completeness.unfinished == ("c",)

    def test_none_routed_is_complete(self, fake_execute, threads):
        miss = (1000.0, 2000.0)
        part = _via_partitions("abc", t_range=miss)
        shard = _via_shards("abc", threads, t_range=miss)
        _assert_same_verdict(part, shard)
        assert part.status is ResultStatus.COMPLETE
        assert part.pairs == [] and part.partitions_pruned == 3
        assert "overlaps" in shard.completeness.reason
        assert threads == []  # no child ran

    def test_batch_cells_get_the_same_verdict(self, monkeypatch):
        """Each cell of a partitioned grid is one gather: cell 0 fails on
        partition "b" only, cell 1 fails everywhere."""
        failed = QueryOutcome(
            status=ResultStatus.FAILED, error=StorageError("bad group"),
        )

        def fake_batch(plans, store, **kw):
            good = QueryOutcome(rows=ROWS[store])
            return [failed if store == "b" else good, failed]

        monkeypatch.setattr(executor, "execute_batch", fake_batch)
        cells = executor.execute_batch_partitioned(
            lambda part: [build_plan(QUERY, point_access="scan")] * 2,
            [_StubPartition("a"), _StubPartition("b")],
            n_queries=2,
        )
        assert cells[0].status is ResultStatus.DEGRADED
        assert cells[0].completeness.finished == ("a",)
        assert cells[0].completeness.unfinished == ("b",)
        assert cells[0].pairs == _pairs(ROWS["a"])
        assert cells[1].status is ResultStatus.FAILED
        assert cells[1].completeness.unfinished == ("a", "b")
        assert isinstance(cells[1].error, StorageError)


class TestScatterPolicy:
    """Every child runs inline on the caller's thread: any number of
    routed shards, any partition set."""

    def test_shards_and_partitions_run_inline(self, fake_execute, threads):
        me = threading.current_thread().name
        _via_partitions("ab")
        assert threads == [me, me]
        del threads[:]
        _via_shards("abc", threads)
        assert threads == [me, me, me]
        del threads[:]
        _via_shards("a", threads)
        assert threads == [me]

    def test_max_workers_warns_and_changes_no_answer(self, threads):
        shards = [
            Shard(ShardSpec(sid, 0.0, 100.0), [_StubReplica(sid, threads)])
            for sid in "ab"
        ]
        with ShardedIndex(shards, 0.2, 3600.0) as plain:
            expected = plain.search_outcome("drop", 3600.0, -1.0)
        with pytest.warns(DeprecationWarning, match="max_workers"):
            warned = ShardedIndex(shards, 0.2, 3600.0, max_workers=4)
        with warned:
            _assert_same_verdict(
                warned.search_outcome("drop", 3600.0, -1.0), expected
            )
        me = threading.current_thread().name
        assert set(threads) == {me}


class _RecordingLock:
    def __init__(self):
        self.held = False
        self.events = []

    def __enter__(self):
        self.held = True
        self.events.append("acquire")

    def __exit__(self, *exc_info):
        self.held = False
        self.events.append("release")


class _LockCheckedPartition:
    """A partition over a real store whose session refuses to plan
    unless the partition's read lock is held."""

    partition_id = "p0"

    def __init__(self, store):
        self.store = store
        self.read_lock = _RecordingLock()
        self.planned = 0

    def overlaps_time(self, t_range):
        return True

    def session(self):
        return self

    def plan(self, query, mode="auto", t_range=None):
        # mode="auto" samples the table through the store's buffer pool
        assert self.read_lock.held, "planned outside the read lock"
        self.planned += 1
        return build_plan(query, point_access="scan", t_range=t_range)


class TestPlanInsideTheLock:
    """Satellite bugfix: ``make_plan(part)`` used to run *before* the
    partition's read lock was taken, so a plan-time sample could race an
    ``execute`` on the same unlocked buffer pool."""

    @pytest.fixture()
    def snapshot(self):
        series = random_walk_series(300, dt=300.0, step_std=0.8, seed=5)
        with SegDiffIndex.build(series, 0.2, 8 * 3600.0) as index:
            part = _LockCheckedPartition(index.store)
            yield part, LiveSnapshot(0.2, 8 * 3600.0, [part], None, 0,
                                     None, 0)

    def test_single_query(self, snapshot):
        part, snap = snapshot
        result = snap.execute(QUERY, mode="auto")
        assert result.status is ResultStatus.COMPLETE
        assert part.planned == 1
        assert part.read_lock.events == ["acquire", "release"]

    def test_batch(self, snapshot):
        part, snap = snapshot
        results = snap.search_batch_results(
            [QUERY, DropQuery(1800.0, -2.0)], mode="auto"
        )
        assert [r.status for r in results] == [ResultStatus.COMPLETE] * 2
        assert part.planned == 2
        assert part.read_lock.events == ["acquire", "release"]

"""One answer, one type: the ident matrix is the answer.

Every execute and search entry point returns a ``QueryOutcome`` whose
answer is the deduplicated ``(n, 4)`` ident matrix ``rows``.  These
tests pin the two promises that come with it:

* ``SegmentPair`` objects are built only at the edge: none until a
  caller reads ``.pairs``, then exactly one per answer row, and the
  cells of a batch grid share theirs;
* the pair constructor's boundary-order check still guards every answer
  on every path, even when no pair is ever built.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core.index import SegDiffIndex
from repro.core.live import LiveIndex
from repro.core.queries import DropQuery, JumpQuery
from repro.datagen import random_walk_series
from repro.engine import QueryOutcome, QuerySession, ShardedIndex, executor
from repro.engine.plan import build_plan
from repro.engine.sharding import Shard, ShardSpec
from repro.errors import InvalidSegmentError
from repro.types import SegmentPair

HOUR = 3600.0
EPS, WINDOW = 0.2, 8 * HOUR
QUERIES = [
    DropQuery(t * HOUR, v) for t in (0.5, 1.0, 2.0) for v in (-0.5, -1.5)
] + [JumpQuery(t * HOUR, v) for t in (1.0, 3.0) for v in (0.5, 2.0)]


@pytest.fixture()
def built(monkeypatch):
    """Counts ``SegmentPair`` constructions from here on."""
    count = [0]
    original = SegmentPair.__post_init__

    def counting(self):
        count[0] += 1
        original(self)

    monkeypatch.setattr(SegmentPair, "__post_init__", counting)
    return count


def _series(seed):
    return random_walk_series(1500, dt=300.0, step_std=0.4, seed=seed)


@pytest.fixture()
def live():
    series = _series(3)
    index = LiveIndex(EPS, WINDOW, seal_rows=4000)
    for lo in range(0, 1500, 100):
        index.append_array(series.times[lo:lo + 100],
                           series.values[lo:lo + 100])
    with index.snapshot() as snap:
        assert snap.n_partitions >= 3
        yield snap
    index.close()


@pytest.fixture()
def sharded():
    with ShardedIndex.build_transect(
        {f"s{i}": _series(10 + i) for i in range(3)}, EPS, WINDOW,
    ) as index:
        yield index


def _edge(built, outcome):
    """No pair before ``.pairs`` is read; one per row after, once."""
    assert built[0] == 0
    n = outcome.rows.shape[0]
    assert n > 0
    assert len(outcome.pairs) == n and built[0] == n
    assert outcome.pairs is outcome.pairs and built[0] == n


class TestPairsAreBuiltAtTheEdge:
    def test_live_execute(self, live, built):
        _edge(built, live.execute(DropQuery(HOUR, -1.0), mode="auto"))

    def test_session_search_outcome(self, built):
        with SegDiffIndex.build(_series(3), EPS, WINDOW) as index:
            built[0] = 0
            _edge(built, index.search_outcome("drop", HOUR, -1.0))

    def test_sharded_search_outcome(self, sharded, built):
        outcome = sharded.search_outcome("drop", HOUR, -1.0)
        assert outcome.partitions_scanned is None
        _edge(built, outcome)

    def test_telemetry_never_builds_pairs(self, live, sharded, built):
        live.explain("drop", HOUR, -1.0)
        live.search_batch_results(QUERIES)
        sharded.search_outcome("drop", HOUR, -1.0)
        assert built[0] == 0


def _distinct(grid):
    return len({p for cell in grid for p in cell})


class TestBatchCellsSharePairs:
    def test_partitioned_grid(self, live, built):
        grid = live.search_batch(QUERIES)
        assert sum(map(len, grid)) > _distinct(grid)  # cells overlap
        assert built[0] == _distinct(grid)

    def test_single_store_grid(self, built):
        """Drop and jump cells share one pool: a pair both kinds select
        is one object."""
        with SegDiffIndex.build(_series(3), EPS, WINDOW) as index:
            built[0] = 0
            grid = index.search_batch(QUERIES)
        kinds = [[cell for q, cell in zip(QUERIES, grid)
                  if isinstance(q, kind)] for kind in (DropQuery, JumpQuery)]
        # some pair is selected by a drop cell and by a jump cell
        assert sum(map(_distinct, kinds)) > _distinct(grid)
        assert sum(map(len, grid)) > _distinct(grid)
        assert built[0] == _distinct(grid)

    def test_shared_objects_answer_like_single_queries(self, live):
        grid = live.search_batch(QUERIES)
        assert grid == [live.search(q) for q in QUERIES]

    def test_cells_read_from_many_threads(self, live, built):
        """Threads reading the cells of one grid at once still build one
        object per distinct row, and every cell reads its own rows."""
        cells = live.search_batch_results(QUERIES)
        start = threading.Barrier(8)
        errors = []

        def read(offset):
            try:
                start.wait(timeout=10)
                for cell in cells[offset:] + cells[:offset]:
                    assert [p.as_tuple() for p in cell.pairs] == \
                        [tuple(r) for r in cell.rows.tolist()]
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=read, args=(i,))
                       for i in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert errors == []
        assert built[0] == _distinct([cell.pairs for cell in cells])


# ---------------------------------------------------------------------- #
# the boundary-order check without the objects
# ---------------------------------------------------------------------- #

#: One matching drop feature (dt, dv) whose ident has t_d > t_c.
_BAD_POINT = np.array([[600.0, -5.0, 50.0, 10.0, 60.0, 70.0]])
_GOOD_POINT = np.array([[600.0, -5.0, 0.0, 10.0, 60.0, 70.0]])


class _OneRowStore:
    """A store whose point table holds one feature row, and no lines."""

    BACKEND = "fake"
    THREAD_SAFE_READS = True

    def __init__(self, point):
        self.point = point

    def _points(self, kind, t_threshold=None, v_threshold=None,
                cache="warm", guard=None):
        return self.point

    def _lines(self, kind, t_threshold=None, v_threshold=None,
               cache="warm", guard=None):
        return np.empty((0, 8))

    scan_points_array = probe_point_index_array = _points
    scan_lines_array = probe_line_index_array = _lines


class _Partition:
    read_lock = None

    def __init__(self, pid, store):
        self.partition_id, self.store = pid, store

    def overlaps_time(self, t_range):
        return True


class _Replica:
    def __init__(self, store):
        self.session = QuerySession(store)

    def search_outcome(self, kind, t_threshold, v_threshold, mode="scan",
                       **kw):
        return self.session.search_outcome(
            DropQuery(t_threshold, v_threshold), mode=mode, **kw
        )

    def close(self):
        pass


QUERY = DropQuery(HOUR, -1.0)


def _single(store):
    return QuerySession(store).search_outcome(QUERY, mode="scan")


def _batch(store):
    return QuerySession(store).search_batch_outcomes(
        [QUERY, DropQuery(2 * HOUR, -2.0)], mode="scan"
    )


def _partitioned(store):
    return executor.execute_partitioned(
        QUERY, lambda part: build_plan(QUERY, point_access="scan"),
        [_Partition("p0", _OneRowStore(_GOOD_POINT)), _Partition("p1", store)],
    )


def _partitioned_batch(store):
    return executor.execute_batch_partitioned(
        lambda part: [build_plan(QUERY, point_access="scan")] * 2,
        [_Partition("p0", _OneRowStore(_GOOD_POINT)), _Partition("p1", store)],
        n_queries=2,
    )


def _sharded(store):
    shards = [
        Shard(ShardSpec("a", 0.0, 1e9), [_Replica(_OneRowStore(_GOOD_POINT))]),
        Shard(ShardSpec("b", 0.0, 1e9), [_Replica(store)]),
    ]
    with ShardedIndex(shards, EPS, WINDOW) as index:
        return index.search_outcome("drop", HOUR, -1.0, mode="scan")


PATHS = [_single, _batch, _partitioned, _partitioned_batch, _sharded]


class TestOrderCheckWithoutObjects:
    @pytest.mark.parametrize("path", PATHS, ids=lambda f: f.__name__[1:])
    def test_out_of_order_row_raises_unread(self, path, built):
        with pytest.raises(InvalidSegmentError, match="out of order"):
            path(_OneRowStore(_BAD_POINT))

    @pytest.mark.parametrize("path", PATHS, ids=lambda f: f.__name__[1:])
    def test_in_order_row_answers(self, path, built):
        out = path(_OneRowStore(_GOOD_POINT))
        outs = out if isinstance(out, list) else [out]
        assert all(isinstance(o, QueryOutcome) for o in outs)
        assert outs[0].rows.tolist() == [[0.0, 10.0, 60.0, 70.0]]
        assert built[0] == 0

"""A (T, V) grid deduplicates once and still answers like the loop.

``execute_batch`` builds one distinct-row matrix per call and each cell
selects its rows by a bitmap over that matrix's ids;
``execute_batch_partitioned`` unions its partitions' matrices once per
grid the same way.  Whatever the grid, every cell's ``rows`` must be
bit-identical, in the same order, to the single query answered alone
(``execute`` / ``search_outcome``) and to the scalar oracle, and each
distinct row must be one :class:`SegmentPair` object across kinds and
partitions.  Failures keep their verdicts: a failing kind group fails
only its own cells, a failing partition degrades the cells to the
survivors' union.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.index import SegDiffIndex
from repro.core.live import LiveIndex
from repro.core.queries import DropQuery, JumpQuery
from repro.datagen import random_walk_series
from repro.engine import QuerySession, ResultStatus, executor
from repro.engine.plan import build_plan
from repro.errors import StorageError

from .oracle import oracle_pairs

HOUR = 3600.0
WINDOW = 8 * HOUR
GRID = settings(max_examples=10, deadline=None, derandomize=True)

_ARRAY_PRIMITIVES = (
    "scan_points_array", "probe_point_index_array",
    "scan_lines_array", "probe_line_index_array",
)


def _query(kind, t_hours, v):
    if kind == "drop":
        return DropQuery(t_hours * HOUR, -v)
    return JumpQuery(t_hours * HOUR, v)


@st.composite
def grids(draw):
    """A (T, V) grid of drops and/or jumps, cells in drawn order."""
    kinds = draw(st.sampled_from([("drop",), ("jump",), ("drop", "jump")]))
    ts = draw(st.lists(st.floats(0.1, 8.0), min_size=1, max_size=3))
    vs = draw(st.lists(st.floats(0.05, 4.0), min_size=1, max_size=2))
    cells = [_query(k, t, v) for k in kinds for t in ts for v in vs]
    order = draw(st.permutations(range(len(cells))))
    return [cells[i] for i in order]


modes = st.sampled_from(["scan", "index", "auto"])


@pytest.fixture(scope="module")
def series():
    return random_walk_series(300, dt=300.0, step_std=0.8, seed=36)


@pytest.fixture(scope="module", params=["memory", "sqlite", "minidb"])
def store(request, series):
    index = SegDiffIndex.build(series, 0.2, WINDOW, backend=request.param)
    yield index.store
    index.close()


@pytest.fixture(scope="module")
def snapshot(series):
    """Three sealed partitions and a hot one."""
    live = LiveIndex(0.2, WINDOW, seal_rows=2**62)
    chunks = np.array_split(np.arange(len(series.times)), 4)
    for i, chunk in enumerate(chunks):
        live.append_array(series.times[chunk], series.values[chunk])
        if i < 3:
            live.seal()
    with live.snapshot() as snap:
        assert len(snap._all_partitions()) >= 4
        yield snap
    live.close()


def _same_rows(cell, alone):
    assert cell.rows.dtype == alone.rows.dtype
    assert cell.rows.shape == alone.rows.shape
    assert cell.rows.tobytes() == alone.rows.tobytes()


def _one_object_per_row(cells):
    seen = {}
    for cell in cells:
        for pair in cell.pairs:
            key = (pair.t_d, pair.t_c, pair.t_b, pair.t_a)
            assert seen.setdefault(key, pair) is pair


class _KindFails:
    """A store whose block primitives raise for one search kind."""

    def __init__(self, store, kind):
        self._store, self._kind = store, kind

    def __getattr__(self, name):
        attr = getattr(self._store, name)
        if name not in _ARRAY_PRIMITIVES:
            return attr

        def primitive(kind, **kw):
            if kind == self._kind:
                raise StorageError(f"{kind} tables unreadable")
            return attr(kind, **kw)
        return primitive


class _Broken:
    """A store every read of which raises."""

    def __getattr__(self, name):
        raise StorageError("partition file unreadable")


class _Part:
    """A duck-typed partition over ``store``."""

    read_lock = None

    def __init__(self, pid, store):
        self.partition_id, self.store = pid, store

    def overlaps_time(self, t_range):
        return True


def _plans(grid, mode="scan"):
    return [build_plan(q, point_access=mode) for q in grid]


def _make_plans(grid):
    """``make_plans`` for a grid; planning a broken partition raises."""
    def make(part):
        if isinstance(part.store, _Broken):
            raise StorageError("cannot plan on an unreadable partition")
        return _plans(grid)
    return make


class TestSingleStore:
    @GRID
    @given(grid=grids(), mode=modes)
    def test_cells_equal_the_loop_and_the_oracle(self, store, grid, mode):
        sess = QuerySession(store)
        cells = sess.search_batch_outcomes(grid, mode=mode)
        for q, cell in zip(grid, cells):
            assert cell.status is ResultStatus.COMPLETE
            _same_rows(cell, sess.search_outcome(q, mode=mode))
            assert cell.pairs == oracle_pairs([store], q)
        _one_object_per_row(cells)

    @GRID
    @given(grid=grids(), failing=st.sampled_from(["drop", "jump"]))
    def test_a_failing_kind_fails_only_its_cells(self, store, grid, failing):
        healthy = executor.execute_batch(_plans(grid), store)
        cells = executor.execute_batch(
            _plans(grid), _KindFails(store, failing)
        )
        for q, cell, ok in zip(grid, cells, healthy):
            if q.kind == failing:
                assert cell.status is ResultStatus.FAILED
                assert isinstance(cell.error, StorageError)
                assert cell.rows.shape == (0, 4)
            else:
                assert cell.status is ResultStatus.COMPLETE
                _same_rows(cell, ok)
        _one_object_per_row(cells)

    def test_empty_and_all_failed_grids(self, store):
        assert executor.execute_batch([], store) == []
        grid = [_query("drop", 1.0, 1.0), _query("jump", 2.0, 0.5)]
        cells = executor.execute_batch(_plans(grid), _Broken())
        assert [c.status for c in cells] == [ResultStatus.FAILED] * 2
        assert all(isinstance(c.error, StorageError) for c in cells)
        assert all(c.rows.shape == (0, 4) and c.pairs == [] for c in cells)


class TestPartitioned:
    @GRID
    @given(grid=grids(), mode=modes)
    def test_cells_equal_the_loop_and_the_oracle(self, snapshot, grid, mode):
        stores = [p.store for p in snapshot._all_partitions()]
        cells = snapshot.search_batch_results(grid, mode=mode)
        for q, cell in zip(grid, cells):
            alone = snapshot.execute(q, mode=mode)
            assert cell.status is ResultStatus.COMPLETE
            assert cell.partitions_scanned == alone.partitions_scanned
            _same_rows(cell, alone)
            assert cell.pairs == oracle_pairs(stores, q)
        _one_object_per_row(cells)

    @GRID
    @given(grid=grids(), lost=st.integers(0, 3),
           raises=st.booleans())
    def test_a_failing_partition_degrades_to_the_survivors(
        self, snapshot, grid, lost, raises
    ):
        """The lost partition either raises (its planning fails) or
        answers FAILED cells (every fetch fails)."""
        parts = snapshot._all_partitions()
        stubs = [
            _Part(f"p{i}", _Broken() if i == lost else p.store)
            for i, p in enumerate(parts)
        ]
        make_plans = _make_plans(grid) if raises else (
            lambda part: _plans(grid))
        cells = executor.execute_batch_partitioned(
            make_plans, stubs, n_queries=len(grid)
        )
        survivors = [p.store for i, p in enumerate(parts) if i != lost]
        for q, cell in zip(grid, cells):
            assert cell.status is ResultStatus.DEGRADED
            assert cell.completeness.unfinished == (f"p{lost}",)
            assert isinstance(cell.error, StorageError)
            assert cell.pairs == oracle_pairs(survivors, q)
            alone = executor.execute_partitioned(
                q, lambda part: _plans([q])[0], stubs
            )
            _same_rows(cell, alone)
        _one_object_per_row(cells)

    def test_all_pruned_empty_and_all_failed(self, snapshot):
        grid = [_query("drop", 1.0, 1.0), _query("jump", 2.0, 0.5)]
        far = (1e12, 2e12)
        cells = snapshot.search_batch_results(grid, mode="scan", t_range=far)
        for q, cell in zip(grid, cells):
            alone = snapshot.execute(q, mode="scan", t_range=far)
            assert cell.status is alone.status is ResultStatus.COMPLETE
            assert cell.completeness == alone.completeness
            assert cell.partitions_scanned == 0
            assert cell.partitions_pruned == alone.partitions_pruned
            assert cell.rows.shape == (0, 4) and cell.pairs == []

        assert snapshot.search_batch_results([]) == []
        parts = snapshot._all_partitions()
        assert executor.execute_batch_partitioned(
            lambda part: [], parts, n_queries=0
        ) == []

        broken = [_Part(f"p{i}", _Broken()) for i in range(3)]
        cells = executor.execute_batch_partitioned(
            _make_plans(grid), broken, n_queries=len(grid)
        )
        for cell in cells:
            assert cell.status is ResultStatus.FAILED
            assert cell.completeness.unfinished == ("p0", "p1", "p2")
            assert isinstance(cell.error, StorageError)
            assert cell.rows.shape == (0, 4) and cell.pairs == []
            assert cell.op_stats == []

    def test_a_failing_kind_on_one_partition_degrades_that_kind(
        self, snapshot
    ):
        grid = [_query("drop", 2.0, 0.5), _query("jump", 2.0, 0.5)]
        parts = snapshot._all_partitions()
        stubs = [_Part(f"p{i}", p.store) for i, p in enumerate(parts)]
        stubs[1].store = _KindFails(parts[1].store, "jump")
        drop, jump = executor.execute_batch_partitioned(
            lambda part: _plans(grid), stubs, n_queries=2
        )
        assert drop.status is ResultStatus.COMPLETE
        assert drop.pairs == oracle_pairs([p.store for p in parts], grid[0])
        assert jump.status is ResultStatus.DEGRADED
        assert jump.completeness.unfinished == ("p1",)
        assert jump.pairs == oracle_pairs(
            [p.store for i, p in enumerate(parts) if i != 1], grid[1]
        )
        _one_object_per_row([drop, jump])

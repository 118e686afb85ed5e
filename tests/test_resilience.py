"""Tests for query deadlines, result verdicts, batch failure isolation,
retry unification, and the read-path chaos harness
(docs/resilience.md)."""

import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.index import SegDiffIndex
from repro.core.queries import DropQuery, JumpQuery
from repro.datagen import random_walk_series
from repro.engine import (
    Deadline,
    QueryGuard,
    QuerySession,
    ResultStatus,
    RetryPolicy,
)
from repro.errors import (
    InvalidParameterError,
    QueryTimeout,
    ResilienceError,
    StorageError,
)
from repro.obs.metrics import REGISTRY
from repro.storage.faults import FaultyStoreWrapper, ReadFaultPolicy

HOUR = 3600.0

DROP = DropQuery(HOUR, -2.0)
JUMP = JumpQuery(2 * HOUR, 1.0)


class FakeClock:
    """A controllable monotonic clock for deadline tests."""

    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def counter_value(name, labels=None):
    metric = REGISTRY.get(name, labels)
    return metric.value if metric is not None else 0.0


@pytest.fixture(scope="module")
def walk_series():
    return random_walk_series(400, dt=300.0, step_std=0.8, seed=71)


@pytest.fixture(scope="module")
def memory_index(walk_series):
    index = SegDiffIndex.build(walk_series, 0.2, 8 * HOUR, backend="memory")
    yield index
    index.close()


@pytest.fixture(scope="module")
def reference(memory_index):
    """No-fault answers for the two canonical queries (mode='index')."""
    sess = QuerySession(memory_index.store)
    return {
        "drop": sess.search(DROP, mode="index"),
        "jump": sess.search(JUMP, mode="index"),
    }


def make_session(memory_index, fault_policy=None):
    wrapper = FaultyStoreWrapper(memory_index.store, fault_policy)
    return wrapper, QuerySession(wrapper)


# ---------------------------------------------------------------------- #
# deadlines and guards
# ---------------------------------------------------------------------- #


class TestDeadline:
    def test_budget_accounting(self):
        clock = FakeClock()
        d = Deadline(2.0, clock=clock)
        assert d.remaining() == pytest.approx(2.0)
        clock.advance(1.5)
        assert d.elapsed() == pytest.approx(1.5)
        assert d.remaining() == pytest.approx(0.5)
        assert not d.expired()
        clock.advance(1.0)
        assert d.expired()
        assert d.remaining() < 0

    def test_from_timeout_ms(self):
        d = Deadline.from_timeout_ms(250.0, clock=FakeClock())
        assert d.budget_s == pytest.approx(0.25)

    def test_invalid_budget(self):
        with pytest.raises(InvalidParameterError):
            Deadline(0.0)
        with pytest.raises(InvalidParameterError):
            Deadline(-1.0)


class TestQueryGuard:
    def test_tick_raises_after_deadline_with_completeness(self):
        clock = FakeClock()
        guard = QueryGuard(deadline=Deadline(1.0, clock=clock))
        guard.start_op("point_range")
        guard.finish_op("point_range")
        guard.start_op("line_cross")
        guard.tick()  # within budget: no-op
        clock.advance(1.1)
        with pytest.raises(QueryTimeout) as exc_info:
            guard.tick()
        exc = exc_info.value
        assert "line_cross" in str(exc)
        assert exc.completeness is not None
        assert exc.completeness.finished == ("point_range",)
        assert exc.completeness.unfinished == ("line_cross",)

    def test_wrap_iter_ticks_periodically(self):
        clock = FakeClock()
        guard = QueryGuard(deadline=Deadline(1.0, clock=clock), check_every=10)
        rows = iter(range(100))

        def expire_midway():
            for i, row in enumerate(guard.wrap_iter(rows)):
                if i == 42:
                    clock.advance(2.0)
                yield row

        consumed = []
        with pytest.raises(QueryTimeout):
            for row in expire_midway():
                consumed.append(row)
        # cancelled at the next multiple-of-10 checkpoint, not at the end
        assert 42 < len(consumed) <= 52

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            QueryGuard(Deadline(1.0), check_every=0)


# ---------------------------------------------------------------------- #
# retry policy
# ---------------------------------------------------------------------- #


class TestRetryPolicy:
    def test_retries_transient_with_backoff(self):
        sleeps = []
        policy = RetryPolicy(
            max_attempts=4, base_delay=0.01, multiplier=2.0,
            name="t-backoff", sleep=sleeps.append,
        )
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise StorageError("transient")
            return "ok"

        assert policy.run(flaky) == "ok"
        assert calls["n"] == 3
        assert sleeps == [pytest.approx(0.01), pytest.approx(0.02)]

    def test_exhaustion_wraps_final_failure(self):
        policy = RetryPolicy(max_attempts=3, name="t-wrap", sleep=lambda s: None)

        def always():
            raise StorageError("still broken")

        with pytest.raises(StorageError, match="after 3 attempt") as exc_info:
            policy.run(
                always,
                wrap=lambda exc, n: StorageError(
                    f"{exc} (after {n} attempt(s))"
                ),
            )
        assert isinstance(exc_info.value.__cause__, StorageError)

    def test_non_transient_not_retried(self):
        policy = RetryPolicy(max_attempts=5, name="t-perm", sleep=lambda s: None)
        calls = {"n": 0}

        def fatal():
            calls["n"] += 1
            raise StorageError("corrupt")

        with pytest.raises(StorageError, match="corrupt"):
            policy.run(fatal, transient=lambda exc: False)
        assert calls["n"] == 1

    def test_uncaught_types_propagate_immediately(self):
        policy = RetryPolicy(max_attempts=5, name="t-type", sleep=lambda s: None)
        calls = {"n": 0}

        def wrong_type():
            calls["n"] += 1
            raise ValueError("not storage")

        with pytest.raises(ValueError):
            policy.run(wrong_type)
        assert calls["n"] == 1

    def test_retry_metric_incremented(self):
        policy = RetryPolicy(max_attempts=3, name="t-metric", sleep=lambda s: None)
        before = counter_value(
            "repro_retry_attempts_total", {"policy": "t-metric"}
        )
        calls = {"n": 0}

        def once():
            calls["n"] += 1
            if calls["n"] == 1:
                raise StorageError("busy")
            return 1

        assert policy.run(once) == 1
        after = counter_value(
            "repro_retry_attempts_total", {"policy": "t-metric"}
        )
        assert after == before + 1


# ---------------------------------------------------------------------- #
# end-to-end: deadlines through the engine (chaos harness)
# ---------------------------------------------------------------------- #


class TestDeadlinesEndToEnd:
    def test_hanging_store_respects_deadline(self, memory_index):
        """A store call that hangs forever returns within the budget."""
        wrapper, sess = make_session(
            memory_index,
            fault_policy=ReadFaultPolicy(hang_at={1}, hang_slice_s=0.01),
        )
        before = counter_value("repro_query_timeouts_total")
        t0 = time.monotonic()
        with pytest.raises(QueryTimeout) as exc_info:
            sess.search(DROP, mode="index", timeout_ms=150.0)
        elapsed = time.monotonic() - t0
        # budget 0.15s + one 0.01s hang slice, with generous CI headroom
        assert elapsed < 2.0
        assert counter_value("repro_query_timeouts_total") == before + 1
        completeness = exc_info.value.completeness
        assert completeness is not None
        assert "point_range" in completeness.unfinished
        assert wrapper.faults_injected == 1

    def test_partial_pairs_attached_on_midquery_timeout(self, memory_index):
        """Timeout after the point operator carries its partial pairs."""
        wrapper, sess = make_session(
            memory_index,
            fault_policy=ReadFaultPolicy(hang_at={2}, hang_slice_s=0.01),
        )
        with pytest.raises(QueryTimeout) as exc_info:
            sess.search(DROP, mode="index", timeout_ms=150.0)
        exc = exc_info.value
        assert exc.completeness is not None
        assert exc.completeness.finished == ("point_range",)
        assert "line_cross" in exc.completeness.unfinished
        assert exc.partial_pairs is not None

    def test_no_timeout_within_budget(self, memory_index, reference):
        _, sess = make_session(memory_index)
        outcome = sess.search_outcome(DROP, mode="index", timeout_ms=60_000.0)
        assert outcome.status is ResultStatus.COMPLETE
        assert outcome.pairs == reference["drop"]

    @pytest.mark.parametrize("api", ["search_outcome", "search_deepest_drops"])
    def test_index_search_apis_respect_deadline(self, walk_series, api):
        """``timeout_ms`` bounds an index's search over a hanging store,
        on the plain search and on the deepest-drops sweep alike."""
        index = SegDiffIndex.build(walk_series, 0.2, 8 * HOUR)
        try:
            index.store = FaultyStoreWrapper(
                index.store, ReadFaultPolicy(hang_at={1}, hang_slice_s=0.01)
            )
            call = {
                "search_outcome": lambda: index.search_outcome(
                    "drop", HOUR, -2.0, timeout_ms=150.0
                ),
                "search_deepest_drops": lambda: index.search_deepest_drops(
                    3, HOUR, timeout_ms=150.0
                ),
            }[api]
            t0 = time.monotonic()
            with pytest.raises(QueryTimeout):
                call()
            assert time.monotonic() - t0 < 2.0
            assert index.store.faults_injected == 1
        finally:
            index.close()

    def test_batch_timeout_covers_whole_grid(self, memory_index):
        wrapper, sess = make_session(
            memory_index,
            fault_policy=ReadFaultPolicy(hang_at={1}, hang_slice_s=0.01),
        )
        with pytest.raises(QueryTimeout):
            sess.search_batch([DROP, JUMP], mode="index", timeout_ms=150.0)


# ---------------------------------------------------------------------- #
# end-to-end: a refine that runs out of time
# ---------------------------------------------------------------------- #


class TestRefineTimeout:
    def test_timeout_partial_pairs_superset_of_refined(
        self, memory_index, walk_series, monkeypatch
    ):
        """A refine that times out leaves the full candidate set in
        ``partial_pairs``: by Theorem 1 a superset of the refined hits."""
        from repro.core import results

        sess = QuerySession(memory_index.store)
        full = sess.search(DROP, mode="index", data=walk_series)
        candidates = sess.search(DROP, mode="index")
        assert full

        # the first witness outlasts the budget, so the deadline expires
        # inside the refine pass and nowhere before it
        real = results.witness_event
        slow = {"first": True}

        def slow_witness(*args, **kw):
            if slow.pop("first", False):
                time.sleep(0.6)
            return real(*args, **kw)

        monkeypatch.setattr(results, "witness_event", slow_witness)
        before = counter_value("repro_query_timeouts_total")
        with pytest.raises(QueryTimeout) as exc_info:
            sess.search(DROP, mode="index", data=walk_series,
                        timeout_ms=500.0)
        exc = exc_info.value
        assert counter_value("repro_query_timeouts_total") == before + 1
        assert exc.completeness.finished == ("point_range", "line_cross")
        assert exc.completeness.unfinished == ("refine",)
        assert exc.partial_pairs == candidates
        # zero false negatives (Theorem 1): candidates ⊇ refined answer
        assert {hit.pair for hit in full} <= set(exc.partial_pairs)

    def test_refine_within_budget_completes(self, memory_index, walk_series):
        _, sess = make_session(memory_index)
        outcome = sess.search_outcome(
            DROP, mode="index", data=walk_series, timeout_ms=60_000.0
        )
        assert outcome.status is ResultStatus.COMPLETE
        assert outcome.hits is not None
        full = QuerySession(memory_index.store).search(
            DROP, mode="index", data=walk_series
        )
        assert outcome.hits == full


# ---------------------------------------------------------------------- #
# end-to-end: batch failure isolation
# ---------------------------------------------------------------------- #


class TestBatchFailureIsolation:
    def test_one_failing_group_leaves_rest_of_grid(
        self, memory_index, reference
    ):
        # call 1 = drop group's point fetch fails; jump group (calls 2-3)
        # is untouched
        wrapper, sess = make_session(
            memory_index, fault_policy=ReadFaultPolicy(error_at={1})
        )
        outcomes = sess.search_batch_outcomes([DROP, JUMP], mode="index")
        assert len(outcomes) == 2
        drop_out, jump_out = outcomes
        assert drop_out.status is ResultStatus.FAILED
        assert isinstance(drop_out.error, StorageError)
        assert drop_out.pairs == []
        assert jump_out.status is ResultStatus.COMPLETE
        assert jump_out.error is None
        assert jump_out.pairs == reference["jump"]

    def test_search_batch_reraises_first_group_error(self, memory_index):
        wrapper, sess = make_session(
            memory_index, fault_policy=ReadFaultPolicy(error_at={1})
        )
        with pytest.raises(StorageError, match="injected read fault"):
            sess.search_batch([DROP, JUMP], mode="index")

    def test_healthy_batch_unaffected(self, memory_index, reference):
        _, sess = make_session(memory_index)
        results = sess.search_batch([DROP, JUMP], mode="index")
        assert results == [reference["drop"], reference["jump"]]


# ---------------------------------------------------------------------- #
# end-to-end: concurrent searches on one session (stress smoke)
# ---------------------------------------------------------------------- #


class TestConcurrentSearches:
    def test_sixteen_concurrent_searches_no_deadlock(
        self, memory_index, reference
    ):
        """16 threads on one session over a slow store: every query
        completes with the exact answer; nothing deadlocks or is lost."""
        n_threads = 16
        wrapper, sess = make_session(
            memory_index,
            fault_policy=ReadFaultPolicy(
                latency_at=set(range(1, 20 * n_threads)), latency_s=0.02
            ),
        )
        barrier = threading.Barrier(n_threads)
        completed, unexpected = [], []
        lock = threading.Lock()

        def worker():
            barrier.wait()
            try:
                pairs = sess.search(DROP, mode="index")
            except BaseException as exc:  # noqa: BLE001 - recorded, asserted
                with lock:
                    unexpected.append(exc)
            else:
                with lock:
                    completed.append(pairs)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads), "deadlocked workers"
        assert not unexpected
        assert len(completed) == n_threads
        for pairs in completed:
            assert pairs == reference["drop"]


# ---------------------------------------------------------------------- #
# property: no fault schedule yields a silently short answer
# ---------------------------------------------------------------------- #


class TestFaultScheduleProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        error_at=st.sets(st.integers(min_value=1, max_value=4), max_size=4),
        fail_next=st.integers(min_value=0, max_value=2),
    )
    def test_complete_results_match_no_fault_run(
        self, memory_index, reference, error_at, fail_next
    ):
        """Any injected fault schedule → either the exact no-fault answer
        (COMPLETE) or a typed resilience/storage error — never a silently
        truncated result set."""
        wrapper, sess = make_session(
            memory_index,
            fault_policy=ReadFaultPolicy(
                error_at=set(error_at), fail_next=fail_next
            ),
        )
        for query, key in ((DROP, "drop"), (JUMP, "jump")):
            try:
                outcome = sess.search_outcome(query, mode="index")
            except (StorageError, ResilienceError):
                continue  # typed failure: loudly incomplete, acceptable
            assert outcome.status is ResultStatus.COMPLETE
            assert outcome.pairs == reference[key]


# ---------------------------------------------------------------------- #
# store-level retry unification
# ---------------------------------------------------------------------- #


class TestMiniDbOpenRetry:
    def test_transient_open_failure_retried(self, tmp_path, monkeypatch):
        from repro.storage.minidb import store as mstore

        # build a valid store first so the retried open succeeds
        path = str(tmp_path / "retry.minidb")
        mstore.MiniDbFeatureStore(path).close()

        real = mstore.MiniDatabase
        calls = {"n": 0}

        def flaky(*a, **kw):
            calls["n"] += 1
            if calls["n"] == 1:
                raise StorageError("database file is locked")
            return real(*a, **kw)

        monkeypatch.setattr(mstore, "MiniDatabase", flaky)
        monkeypatch.setattr(mstore._OPEN_RETRY, "sleep", lambda s: None)
        before = counter_value(
            "repro_retry_attempts_total", {"policy": "minidb_open"}
        )
        store = mstore.MiniDbFeatureStore(path)
        store.close()
        assert calls["n"] == 2
        assert (
            counter_value(
                "repro_retry_attempts_total", {"policy": "minidb_open"}
            )
            == before + 1
        )

    def test_corruption_not_retried(self, tmp_path, monkeypatch):
        from repro.errors import CorruptionError
        from repro.storage.minidb import store as mstore

        calls = {"n": 0}

        def corrupt(*a, **kw):
            calls["n"] += 1
            raise CorruptionError("bad page checksum")

        monkeypatch.setattr(mstore, "MiniDatabase", corrupt)
        monkeypatch.setattr(mstore._OPEN_RETRY, "sleep", lambda s: None)
        with pytest.raises(CorruptionError):
            mstore.MiniDbFeatureStore(str(tmp_path / "corrupt.minidb"))
        assert calls["n"] == 1


class TestSqliteRetryUnification:
    def test_sqlite_store_uses_shared_policy(self, tmp_path):
        from repro.storage.sqlite_store import SqliteFeatureStore

        store = SqliteFeatureStore(str(tmp_path / "r.sqlite"))
        try:
            policy = store._retry_policy()
            assert isinstance(policy, RetryPolicy)
            assert policy.name == "sqlite"
            assert policy.max_attempts == store.max_retries
            assert policy.base_delay == pytest.approx(0.02)
            # cached, but rebuilt when max_retries changes
            assert store._retry_policy() is policy
            store.max_retries = policy.max_attempts + 1
            assert store._retry_policy().max_attempts == store.max_retries
        finally:
            store.close()


# ---------------------------------------------------------------------- #
# observability surface
# ---------------------------------------------------------------------- #


class TestResilienceMetrics:
    def test_core_series_registered(self):
        assert REGISTRY.get("repro_query_timeouts_total") is not None
        assert REGISTRY.get("repro_queries_degraded_total") is not None

    def test_retry_counter_labelled(self):
        RetryPolicy(name="t-registered")
        assert (
            REGISTRY.get(
                "repro_retry_attempts_total", {"policy": "t-registered"}
            )
            is not None
        )

    def test_stats_cli_surfaces_resilience_metrics(self, capsys):
        from repro.cli import main

        assert main(["stats", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "repro_query_timeouts_total" in out


# ---------------------------------------------------------------------- #
# CLI flags
# ---------------------------------------------------------------------- #


class TestCliResilienceFlags:
    @pytest.fixture
    def index_path(self, tmp_path):
        from repro.cli import main

        csv = str(tmp_path / "data.csv")
        assert main(["generate", "--days", "2", "--seed", "3",
                     "--out", csv]) == 0
        smooth = str(tmp_path / "smooth.csv")
        assert main(["smooth", csv, "--out", smooth]) == 0
        idx = str(tmp_path / "cad.idx")
        assert main(["build", smooth, "--epsilon", "0.2",
                     "--window-hours", "8", "--index", idx]) == 0
        return idx

    def test_search_with_resilience_flags(self, index_path, capsys):
        from repro.cli import main

        assert main([
            "search", index_path, "--drop", "-3", "--timeout-ms", "60000",
        ]) == 0
        out = capsys.readouterr().out
        assert "matching periods" in out

    @pytest.mark.parametrize("query", [["--drop", "-3"], ["--deepest", "3"]])
    def test_timeout_reaches_every_search_path(
        self, index_path, capsys, monkeypatch, query
    ):
        """``--timeout-ms`` bounds the threshold search and every search
        of the ``--deepest`` sweep: over a hanging store both fail with
        the deadline instead of waiting out the hang."""
        from repro import cli

        real_open = cli.SegDiffIndex.open

        def open_hanging(path):
            index = real_open(path)
            index.store = FaultyStoreWrapper(
                index.store, ReadFaultPolicy(hang_at={1}, hang_slice_s=0.01)
            )
            return index

        monkeypatch.setattr(cli.SegDiffIndex, "open", open_hanging)
        t0 = time.monotonic()
        assert cli.main(
            ["search", index_path, *query, "--timeout-ms", "150"]
        ) == 1
        assert time.monotonic() - t0 < 10.0  # the hang's cap is 30 s
        assert "deadline of 150 ms exceeded" in capsys.readouterr().err

    def test_search_without_flags_unchanged(self, index_path, capsys):
        from repro.cli import main

        assert main(["search", index_path, "--drop", "-3"]) == 0
        capsys.readouterr()

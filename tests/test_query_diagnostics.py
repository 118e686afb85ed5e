"""Tests for end-to-end query diagnostics (repro.obs + engine wiring).

Covers the four pillars of the diagnostics work:

* **Connected trace trees** — a sharded query scattered over a thread
  pool yields ONE tree: per-shard ``query.search`` spans parent onto the
  scatter span through the explicit :class:`QueryContext` hand-off
  instead of becoming orphan roots (the regression this suite pins).
* **Resource accounting** — always-on per-query totals whose
  ``(operator, shard, partition)`` breakdown sums back to the totals, a
  Hypothesis property held under random fault schedules: COMPLETE
  answers account every shard exactly, DEGRADED/FAILED answers stay
  sound (parts still sum, results stay a subset of the truth).
* **Tail-based retention** — healthy fast queries leave no trace in the
  ring; slow or unhealthy ones are retained.
* **Flight recorder** — a 16-thread stress on the bounded ring: no lost
  or torn events, seq-ordered tails, memory bounded by ``maxlen``, and
  dumps that validate against the checked-in event schema.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core.index import SegDiffIndex
from repro.core.live import LiveIndex
from repro.core.queries import DropQuery
from repro.datagen.series import TimeSeries
from repro.engine import ResultStatus, ShardedIndex
from repro.obs import slowlog
from repro.obs.export import validate_schema
from repro.obs.recorder import FlightRecorder
from repro.storage.faults import FaultyStoreWrapper, ReadFaultPolicy

HOUR = 3600.0
EPS = 0.2
WINDOW = 2 * HOUR
MAX_GAP = HOUR
T, V = HOUR, -2.0
N_SHARDS = 4

#: Every integer counter the accounting tracks (mirrors context._COUNTER_FIELDS).
COUNTER_FIELDS = (
    "rows_scanned", "rows_fetched", "rows_matched", "pages_read",
    "bytes_decoded", "retries", "failovers",
    "partitions_scanned", "partitions_pruned",
)


def gapped_series(episodes=6, n=200, seed=0, drop=3.0):
    """Episodes of a random walk separated by day-long sampling gaps."""
    rng = np.random.default_rng(seed)
    ts, vs = [], []
    t0 = 0.0
    for _ in range(episodes):
        t = t0 + np.arange(n) * 60.0
        v = np.cumsum(rng.normal(0, 0.05, n))
        v[n // 3 : n // 3 + 5] -= np.linspace(0, drop, 5)
        ts.append(t)
        vs.append(v)
        t0 = t[-1] + 24 * HOUR
    return TimeSeries(
        times=np.concatenate(ts), values=np.concatenate(vs), name="s"
    )


def pair_set(pairs):
    return sorted(p.as_tuple() for p in pairs)


def assert_totals_equal_parts(acct):
    """The core accounting invariant: totals == sum of breakdown cells."""
    assert acct is not None
    for field in COUNTER_FIELDS:
        assert acct.total(field) == acct.scoped_sum(field), field


@pytest.fixture(scope="module")
def series():
    return gapped_series()


@pytest.fixture(scope="module")
def plain_answer(series):
    with SegDiffIndex.build(series, EPS, WINDOW, max_gap=MAX_GAP) as idx:
        yield pair_set(idx.search_drops(T, V))


@pytest.fixture(scope="module")
def sharded4(series):
    with ShardedIndex.build(
        series, EPS, WINDOW, n_shards=N_SHARDS, max_gap=MAX_GAP
    ) as sharded:
        yield sharded


def _lose_replica(replica, fail_next=10**9):
    """Wrap a replica's store so its next ``fail_next`` reads fail;
    returns what :func:`_restore_replica` needs."""
    saved = (replica, replica.store)
    replica.store = FaultyStoreWrapper(
        replica.store, ReadFaultPolicy(fail_next=fail_next)
    )
    replica._session = None
    return saved


def _restore_replica(saved):
    replica, store = saved
    replica.store = store
    replica._session = None


class TestConnectedTraceTree:
    """Satellite (a): no orphan spans across the scatter thread pool."""

    def test_scatter_gather_yields_one_connected_tree(
        self, sharded4, plain_answer
    ):
        ctx = obs.new_context(api="search")
        with obs.use_context(ctx):
            outcome = sharded4.search_outcome("drop", T, V)
        assert outcome.status is ResultStatus.COMPLETE
        assert pair_set(outcome.pairs) == plain_answer

        # exactly ONE root: worker spans joined the scatter span's tree
        roots = list(ctx.trace_roots)
        assert [r.name for r in roots] == ["shard.scatter_gather"]
        root = roots[0]
        assert root.attributes.get("query_id") == ctx.query_id

        searches = [
            s for s in obs.iter_spans(root) if s.name == "query.search"
        ]
        assert len(searches) == N_SHARDS
        assert {s.attributes.get("shard") for s in searches} == {
            shard.spec.shard_id for shard in sharded4.shards
        }
        for s in searches:
            assert s.attributes.get("query_id") == ctx.query_id

        # every span in the tree walks back to the single root
        for s in obs.iter_spans(root):
            node = s
            while node.parent is not None:
                node = node.parent
            assert node is root

    def test_trace_roots_not_retained_for_healthy_fast_queries(
        self, sharded4
    ):
        """Tail-based retention: a healthy query under the default (no)
        threshold records spans but keeps none in the process ring."""
        obs.clear_traces()
        prev = slowlog.default_threshold()
        slowlog.set_default_threshold(None)
        try:
            outcome = sharded4.search_outcome("drop", T, V)
            assert outcome.status is ResultStatus.COMPLETE
            assert obs.recent_traces() == []
        finally:
            slowlog.set_default_threshold(prev)

    def test_slow_queries_retain_their_trace(self, sharded4):
        obs.clear_traces()
        prev = slowlog.default_threshold()
        slowlog.set_default_threshold(0.0)  # everything is "slow"
        try:
            sharded4.search_outcome("drop", T, V)
            names = [r.name for r in obs.recent_traces()]
            assert "shard.scatter_gather" in names
        finally:
            slowlog.set_default_threshold(prev)
            obs.clear_traces()


class TestAccountingUnderFaults:
    """Satellite (d): totals == sum of parts under fault schedules."""

    def test_complete_query_accounts_every_shard(
        self, sharded4, plain_answer
    ):
        outcome = sharded4.search_outcome("drop", T, V)
        assert outcome.status is ResultStatus.COMPLETE
        assert outcome.query_id
        assert outcome.recorder_tail is None  # healthy: no tail attached
        acct = outcome.accounting
        assert_totals_equal_parts(acct)
        assert acct.total("rows_scanned") > 0
        shard_scopes = {
            shard for (_, shard, _) in acct.scopes() if shard is not None
        }
        assert shard_scopes == {
            shard.spec.shard_id for shard in sharded4.shards
        }

    @settings(max_examples=15, deadline=None)
    @given(
        mask=st.integers(0, 2 ** N_SHARDS - 1),
        transient=st.lists(
            st.integers(0, 2), min_size=N_SHARDS, max_size=N_SHARDS
        ),
    )
    def test_totals_equal_parts_under_random_fault_schedules(
        self, sharded4, plain_answer, mask, transient
    ):
        saved = []
        try:
            for i, shard in enumerate(sharded4.shards):
                if mask & (1 << i):
                    saved.append(_lose_replica(shard.replicas[0]))
                elif transient[i]:
                    saved.append(
                        _lose_replica(
                            shard.replicas[0], fail_next=transient[i]
                        )
                    )
            outcome = sharded4.search_outcome("drop", T, V)

            # the invariant holds whatever happened
            assert_totals_equal_parts(outcome.accounting)
            assert outcome.query_id

            got = pair_set(outcome.pairs)
            lost = {
                sharded4.shards[i].spec.shard_id
                for i in range(N_SHARDS)
                if mask & (1 << i)
            }
            if outcome.status is ResultStatus.COMPLETE:
                # COMPLETE => exact: the full answer, every shard counted
                assert got == plain_answer
                shard_scopes = {
                    s for (_, s, _) in outcome.accounting.scopes()
                    if s is not None
                }
                assert shard_scopes == {
                    shard.spec.shard_id for shard in sharded4.shards
                }
            else:
                # DEGRADED/FAILED => sound partial: no invented results,
                # and the failure carries its recorder tail
                assert set(got) <= set(plain_answer)
                assert outcome.recorder_tail is not None
            if len(lost) == N_SHARDS:
                assert outcome.status is ResultStatus.FAILED
            elif lost:
                assert outcome.status in (
                    ResultStatus.DEGRADED, ResultStatus.FAILED
                )
                assert lost <= set(outcome.completeness.unfinished)
            elif not any(transient):
                assert outcome.status is ResultStatus.COMPLETE
        finally:
            for s in saved:
                _restore_replica(s)

    def test_degraded_outcome_attaches_schema_valid_recorder_tail(
        self, series, plain_answer
    ):
        with ShardedIndex.build(
            series, EPS, WINDOW, n_shards=2, max_gap=MAX_GAP
        ) as sharded:
            _lose_replica(sharded.shards[0].replicas[0])
            outcome = sharded.search_outcome("drop", T, V)
            assert outcome.status is ResultStatus.DEGRADED
            assert outcome.recorder_tail is not None
            for event in outcome.recorder_tail:
                validate_schema(event, obs.RECORDER_EVENT_SCHEMA)
            assert_totals_equal_parts(outcome.accounting)
            # the surviving shard is still accounted
            healthy = sharded.shards[1].spec.shard_id
            assert healthy in {
                s for (_, s, _) in outcome.accounting.scopes()
            }

    def test_failover_is_accounted_and_recorded(self, series, plain_answer):
        with ShardedIndex.build(
            series, EPS, WINDOW, n_shards=2, max_gap=MAX_GAP, replicas=2
        ) as sharded:
            _lose_replica(sharded.shards[0].replicas[0])
            outcome = sharded.search_outcome("drop", T, V)
            assert outcome.status is ResultStatus.COMPLETE
            assert pair_set(outcome.pairs) == plain_answer
            assert outcome.accounting.total("failovers") >= 1
            # the failover left a flight-recorder event tagged with
            # this query's id (the ring may be full, so no length check)
            failovers = [
                e for e in obs.RECORDER.tail()
                if e.category == "failover"
                and e.attrs.get("query_id") == outcome.query_id
            ]
            assert failovers, "failover left no flight-recorder event"


class TestLiveTierSlowlog:
    """Satellite (b): live-tier queries log plans with partition stats."""

    @pytest.fixture()
    def live(self):
        rng = np.random.default_rng(7)
        ts = np.cumsum(rng.uniform(0.5, 3.0, 600))
        vs = np.cumsum(rng.normal(0.0, 1.0, 600))
        index = LiveIndex(0.8, 300.0, seal_rows=50)
        index.append_array(ts, vs, batch_size=40)
        return index

    def test_live_search_record_carries_partition_breakdown(self, live):
        prev = slowlog.default_threshold()
        slowlog.set_default_threshold(0.0)
        slowlog.clear()
        try:
            with live.snapshot() as snap:
                result = snap.execute(DropQuery(30.0, -1.0), mode="auto")
            recs = [
                r for r in slowlog.recent() if r.api == "live_search"
            ]
            assert recs, "live query produced no slowlog record"
            rec = recs[-1]
            assert rec.backend.startswith("live/")
            assert rec.status == "complete"
            assert rec.query_id
            assert rec.plan.startswith("live[")
            assert rec.partitions_scanned == result.partitions_scanned
            assert rec.partitions_pruned == result.partitions_pruned
            assert rec.partitions_scanned >= 1
            # per-partition accounting cells rode along
            assert any(
                cell.get("partition") is not None for cell in rec.shards
            )
            assert rec.accounting is not None
            totals = rec.accounting["totals"]
            for field in COUNTER_FIELDS:
                assert totals.get(field, 0) == sum(
                    cell.get(field, 0) for cell in rec.shards
                ), field
            d = rec.to_dict()
            assert "partitions_scanned" in d
            assert "shards" in d and "accounting" in d
        finally:
            slowlog.set_default_threshold(prev)
            slowlog.clear()

    def test_pruned_partitions_show_up_in_the_record(self, live):
        prev = slowlog.default_threshold()
        slowlog.set_default_threshold(0.0)
        slowlog.clear()
        try:
            t_max = float(live.partitions[-1].t_max)
            with live.snapshot() as snap:
                result = snap.execute(
                    DropQuery(30.0, -1.0),
                    mode="auto",
                    t_range=(0.0, t_max / 4),
                )
            rec = [
                r for r in slowlog.recent() if r.api == "live_search"
            ][-1]
            assert rec.partitions_pruned == result.partitions_pruned
            assert rec.partitions_pruned >= 1
        finally:
            slowlog.set_default_threshold(prev)
            slowlog.clear()

    def test_batch_records_carry_status(self, live):
        prev = slowlog.default_threshold()
        slowlog.set_default_threshold(0.0)
        slowlog.clear()
        try:
            with live.snapshot() as snap:
                snap.search_batch_results(
                    [DropQuery(30.0, -1.0), DropQuery(80.0, -2.5)]
                )
            recs = [
                r for r in slowlog.recent()
                if r.api == "live_search_batch"
            ]
            assert recs
            assert recs[-1].status == "complete"
            assert recs[-1].query_id
        finally:
            slowlog.set_default_threshold(prev)
            slowlog.clear()


class TestOneEnvelope:
    """Every query API reports through the one ``QueryEnvelope``: the
    hand-written copies had drifted (slow live queries never bumped
    ``repro_query_slow_total`` / ``repro_query_pairs``; a sharded
    fan-out was in no counter, histogram or slow-log record at all)."""

    @staticmethod
    def _count(name, labels=None):
        metric = obs.REGISTRY.get(name, labels)
        if metric is None:
            return 0
        return metric.count if hasattr(metric, "count") else metric.value

    @pytest.fixture()
    def everything_is_slow(self):
        prev = slowlog.default_threshold()
        slowlog.set_default_threshold(0.0)
        slowlog.clear()
        yield
        slowlog.set_default_threshold(prev)
        slowlog.clear()

    def test_a_slow_live_query_counts_like_any_other(
        self, everything_is_slow
    ):
        rng = np.random.default_rng(7)
        with LiveIndex(0.8, 300.0, seal_rows=50) as live:
            live.append_array(
                np.cumsum(rng.uniform(0.5, 3.0, 600)),
                np.cumsum(rng.normal(0.0, 1.0, 600)), batch_size=40,
            )
            slow = self._count("repro_query_slow_total")
            pairs = self._count("repro_query_pairs")
            with live.snapshot() as snap:
                snap.execute(DropQuery(30.0, -1.0), mode="auto")
        assert self._count("repro_query_slow_total") == slow + 1
        assert self._count("repro_query_pairs") == pairs + 1

    def test_the_fan_out_is_counted_and_timed(self, sharded4):
        api = {"api": "shard_search"}
        queries = self._count("repro_engine_queries_total", api)
        seconds = self._count("repro_query_seconds", api)
        sharded4.search_outcome("drop", T, V)
        assert self._count("repro_engine_queries_total", api) == queries + 1
        assert self._count("repro_query_seconds", api) == seconds + 1

    def test_the_fan_out_leaves_one_record_of_its_own(
        self, sharded4, everything_is_slow
    ):
        outcome = sharded4.search_outcome("drop", T, V)
        # beside the per-shard "search" records it fanned out to
        recs = [r for r in slowlog.recent() if r.api == "shard_search"]
        assert len(recs) == 1
        assert recs[0].query_id == outcome.query_id
        assert recs[0].status == "complete"
        assert recs[0].n_pairs == len(outcome.pairs)
        assert {cell.get("shard") for cell in recs[0].shards} >= {
            shard.spec.shard_id for shard in sharded4.shards
        }


class TestLatencyBuckets:
    """Satellite (c): repro_query_seconds uses the re-tuned edges."""

    def test_buckets_cover_microseconds_to_seconds(self):
        edges = obs.QUERY_LATENCY_BUCKETS
        assert edges[0] <= 5e-5, "first edge must resolve µs-scale probes"
        assert edges[-1] >= 5.0, "last edge must cover deadline-scale tails"
        assert list(edges) == sorted(edges)

    def test_query_histograms_use_the_retuned_edges(self):
        from repro.engine import session as session_mod

        # one family for every query API, live tier and fan-out included
        assert {"search", "live_search", "shard_search"} <= set(
            session_mod._QUERY_SECONDS
        )
        for hist in session_mod._QUERY_SECONDS.values():
            assert hist.bounds == obs.QUERY_LATENCY_BUCKETS


class TestFlightRecorderRing:
    """Satellite (d): the recorder under 16-thread contention."""

    N_THREADS = 16
    PER_THREAD = 200

    def _hammer(self, recorder):
        barrier = threading.Barrier(self.N_THREADS)
        errors = []

        def worker(tid):
            try:
                barrier.wait()
                for i in range(self.PER_THREAD):
                    recorder.record("seal", f"t{tid}", tid=tid, i=i)
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(tid,))
            for tid in range(self.N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_no_lost_or_torn_events(self):
        # ring big enough to hold everything: nothing may be lost
        recorder = FlightRecorder(
            maxlen=self.N_THREADS * self.PER_THREAD
        )
        self._hammer(recorder)
        events = recorder.tail()
        assert len(events) == self.N_THREADS * self.PER_THREAD
        seqs = [e.seq for e in events]
        assert len(set(seqs)) == len(seqs)
        assert seqs == sorted(seqs), "ring tail must be seq-ordered"
        seen = set()
        for e in events:
            # torn event = name/attrs from different records interleaved
            assert e.category == "seal"
            assert e.name == f"t{e.attrs['tid']}"
            key = (e.attrs["tid"], e.attrs["i"])
            assert key not in seen
            seen.add(key)
        assert seen == {
            (tid, i)
            for tid in range(self.N_THREADS)
            for i in range(self.PER_THREAD)
        }

    def test_memory_stays_bounded_at_maxlen(self):
        recorder = FlightRecorder(maxlen=256)
        self._hammer(recorder)  # 3200 records through a 256-slot ring
        assert len(recorder) == 256
        events = recorder.tail()
        assert len(events) == 256
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_dump_validates_against_the_event_schema(self):
        recorder = FlightRecorder(maxlen=64)
        recorder.record("compaction", "p000001", merged=3, rows=1200)
        recorder.record("breaker", "shard-t1", state="open")
        from repro.obs.export import validate_jsonl

        n = validate_jsonl(
            recorder.to_jsonl().splitlines(), obs.RECORDER_EVENT_SCHEMA
        )
        assert n == 2

    def test_unknown_category_is_rejected(self):
        recorder = FlightRecorder(maxlen=8)
        with pytest.raises(ValueError, match="unknown flight-recorder"):
            recorder.record("not-a-category", "x")
        assert len(recorder) == 0

"""Tests for sharded indexes (repro.engine.sharding).

Covers the scatter-gather/merge equivalence with a single index, shard
routing, replica failover and honest lost-shard reporting, and the
checksum anti-entropy verify/repair loop — including the Hypothesis
property that a single mutated replica row is localized to exactly its
leaf range and repair restores byte-identical rows.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.index import SegDiffIndex
from repro.datagen.series import TimeSeries
from repro.engine import (
    ResultStatus,
    Shard,
    ShardedIndex,
    ShardSpec,
)
from repro.errors import InvalidParameterError, StorageError
from repro.obs.metrics import REGISTRY
from repro.storage import checksum as cks
from repro.storage.faults import FaultyStoreWrapper, ReadFaultPolicy

HOUR = 3600.0
EPS = 0.2
WINDOW = 2 * HOUR
MAX_GAP = HOUR
T, V = HOUR, -2.0  # the (T, V) drop query used throughout


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


@pytest.fixture(scope="module")
def series():
    return gapped_series()


@pytest.fixture(scope="module")
def plain_answer(series):
    with SegDiffIndex.build(series, EPS, WINDOW, max_gap=MAX_GAP) as idx:
        yield pair_set(idx.search_drops(T, V))


class TestShardedEqualsPlain:
    def test_multi_shard_union_equals_single_index(
        self, series, plain_answer
    ):
        with ShardedIndex.build(
            series, EPS, WINDOW, n_shards=4, max_gap=MAX_GAP
        ) as sharded:
            assert len(sharded.shards) == 4
            outcome = sharded.search_outcome("drop", T, V)
            assert outcome.status is ResultStatus.COMPLETE
            assert pair_set(outcome.pairs) == plain_answer

    def test_one_shard_is_bit_identical(self, series, plain_answer):
        with ShardedIndex.build(
            series, EPS, WINDOW, n_shards=1, max_gap=MAX_GAP
        ) as sharded:
            outcome = sharded.search_outcome("drop", T, V)
            assert pair_set(outcome.pairs) == plain_answer

    def test_jumps_merge_too(self, series):
        with SegDiffIndex.build(
            series, EPS, WINDOW, max_gap=MAX_GAP
        ) as idx, ShardedIndex.build(
            series, EPS, WINDOW, n_shards=3, max_gap=MAX_GAP
        ) as sharded:
            outcome = sharded.search_outcome("jump", T, -V)
            assert pair_set(outcome.pairs) == pair_set(
                idx.search_jumps(T, -V)
            )

    def test_auto_mode_on_sqlite_shards_plans_off_the_owner_thread(
        self, series
    ):
        """``mode="auto"`` makes each shard's cost model read counts and
        samples on the querying thread; SQLite connections are bound to
        the thread that opened them, so a query from another thread than
        the builder's must read through the store's per-thread reader."""
        with ShardedIndex.build(
            series, EPS, WINDOW, n_shards=4, max_gap=MAX_GAP,
            backend="sqlite",
        ) as sharded:
            out = {}
            worker = threading.Thread(target=lambda: out.update(
                (mode, sharded.search_outcome("drop", T, V, mode=mode))
                for mode in ("scan", "auto")
            ))
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive()
            scan, auto = out["scan"], out["auto"]
            assert auto.status is ResultStatus.COMPLETE
            assert scan.pairs and auto.pairs == scan.pairs

    def test_replicas_are_bit_identical(self, series):
        with ShardedIndex.build(
            series, EPS, WINDOW, n_shards=2, max_gap=MAX_GAP, replicas=3
        ) as sharded:
            for shard in sharded.shards:
                base = shard.primary.store
                for replica in shard.replicas[1:]:
                    for table in cks.TABLES:
                        np.testing.assert_array_equal(
                            base.read_table_rows(table),
                            replica.store.read_table_rows(table),
                        )


class TestRouting:
    def test_t_range_touches_only_overlapping_shards(self, series):
        with ShardedIndex.build(
            series, EPS, WINDOW, n_shards=3, max_gap=MAX_GAP
        ) as sharded:
            first = sharded.shards[0].spec
            routed = sharded.route(None, (first.t_min, first.t_max))
            assert [s.shard_id for s in routed] == [first.shard_id]
            assert len(sharded.route(None, None)) == 3

    def test_disjoint_range_is_complete_and_empty(self, series):
        with ShardedIndex.build(
            series, EPS, WINDOW, n_shards=2, max_gap=MAX_GAP
        ) as sharded:
            outcome = sharded.search_outcome(
                "drop", T, V, t_range=(-2e9, -1e9)
            )
            assert outcome.status is ResultStatus.COMPLETE
            assert outcome.pairs == []
            assert "no shard overlaps" in outcome.completeness.reason

    def test_sensor_routing_in_transect(self):
        sensors = {
            "a": gapped_series(episodes=1, seed=1),
            "b": gapped_series(episodes=1, seed=2),
        }
        with ShardedIndex.build_transect(
            sensors, EPS, WINDOW
        ) as sharded:
            routed = sharded.route(["b"], None)
            assert [s.shard_id for s in routed] == ["b"]
            merged = sharded.search_outcome("drop", T, V)
            only_b = sharded.search_outcome("drop", T, V, sensors=["b"])
            assert set(pair_set(only_b.pairs)) <= set(
                pair_set(merged.pairs)
            )

    def test_time_sharding_requires_max_gap(self, series):
        with pytest.raises(TypeError):
            ShardedIndex.build(series, EPS, WINDOW, n_shards=2)

    def test_duplicate_shard_ids_rejected(self, series):
        idx = SegDiffIndex.build(series, EPS, WINDOW)
        spec = ShardSpec("x", 0.0, 1.0)
        with pytest.raises(InvalidParameterError, match="duplicate"):
            ShardedIndex(
                [Shard(spec, [idx]), Shard(spec, [idx])], EPS, WINDOW
            )
        idx.close()


class TestFailover:
    def test_replica_killed_mid_query_still_complete(
        self, series, plain_answer
    ):
        """Chaos: primary replica errors -> failover -> COMPLETE."""
        with ShardedIndex.build(
            series, EPS, WINDOW, n_shards=2, max_gap=MAX_GAP, replicas=2
        ) as sharded:
            shard = sharded.shards[0]
            # every read of the primary now fails with StorageError
            shard.replicas[0].store = FaultyStoreWrapper(
                shard.replicas[0].store,
                ReadFaultPolicy(fail_next=10**9),
            )
            shard.replicas[0]._session = None
            before = REGISTRY.get("repro_shard_failovers_total").value
            outcome = sharded.search_outcome("drop", T, V)
            assert outcome.status is ResultStatus.COMPLETE
            assert pair_set(outcome.pairs) == plain_answer
            after = REGISTRY.get("repro_shard_failovers_total").value
            assert after == before + 1

    def test_no_surviving_replica_names_lost_shard(
        self, series, plain_answer
    ):
        with ShardedIndex.build(
            series, EPS, WINDOW, n_shards=2, max_gap=MAX_GAP
        ) as sharded:
            lost = sharded.shards[0]
            lost.replicas[0].store = FaultyStoreWrapper(
                lost.replicas[0].store, ReadFaultPolicy(fail_next=10**9)
            )
            lost.replicas[0]._session = None
            outcome = sharded.search_outcome("drop", T, V)
            assert outcome.status is ResultStatus.DEGRADED
            assert outcome.completeness.unfinished == (lost.shard_id,)
            assert lost.shard_id in outcome.completeness.reason
            survivor = sharded.shards[1].shard_id
            assert survivor in outcome.completeness.finished
            # survivors' answers are a sound subset of the full answer
            assert set(pair_set(outcome.pairs)) < set(plain_answer)

    def test_every_shard_lost_is_failed(self, series):
        with ShardedIndex.build(
            series, EPS, WINDOW, n_shards=2, max_gap=MAX_GAP
        ) as sharded:
            for shard in sharded.shards:
                shard.replicas[0].store = FaultyStoreWrapper(
                    shard.replicas[0].store,
                    ReadFaultPolicy(fail_next=10**9),
                )
                shard.replicas[0]._session = None
            outcome = sharded.search_outcome("drop", T, V)
            assert outcome.status is ResultStatus.FAILED
            assert outcome.error is not None
            assert len(outcome.completeness.unfinished) == 2

    def test_timed_out_primary_fails_over(self, series, plain_answer):
        """A primary that hangs past the query's deadline is abandoned
        for the next replica; the answer is still COMPLETE."""
        with ShardedIndex.build(
            series, EPS, WINDOW, n_shards=1, max_gap=MAX_GAP, replicas=2,
        ) as sharded:
            shard = sharded.shards[0]
            shard.replicas[0].store = FaultyStoreWrapper(
                shard.replicas[0].store,
                ReadFaultPolicy(hang_at={1}, hang_slice_s=0.01),
            )
            shard.replicas[0]._session = None
            outcome = sharded.search_outcome("drop", T, V, timeout_ms=150.0)
            assert outcome.status is ResultStatus.COMPLETE
            assert pair_set(outcome.pairs) == plain_answer
            assert shard.replicas[0].store.faults_injected == 1


class TestVerifyRepair:
    def test_clean_build_verifies_clean(self, series):
        with ShardedIndex.build(
            series, EPS, WINDOW, n_shards=2, max_gap=MAX_GAP, replicas=2
        ) as sharded:
            report = sharded.verify()
            assert report.clean
            assert report.shards_checked == 2
            # sealed-vs-primary plus one sibling, per shard
            assert report.replicas_checked == 4

    def test_mutated_replica_localized_and_repaired(self, series):
        with ShardedIndex.build(
            series, EPS, WINDOW, n_shards=2, max_gap=MAX_GAP, replicas=2
        ) as sharded:
            shard = sharded.shards[1]
            replica = shard.replicas[1]
            clean = replica.store.read_table_rows("drop_points")
            bad = clean[5:6].copy()
            bad[0, 1] += 4.0
            replica.store.replace_table_rows("drop_points", 5, bad)

            report = sharded.verify()
            assert not report.clean
            assert len(report.divergences) == 1
            div = report.divergences[0]
            assert (div.shard_id, div.replica) == (shard.shard_id, 1)
            assert div.table == "drop_points"
            tree = cks.store_trees(shard.primary.store)["drop_points"]
            assert div.ranges == (tree.leaf_range(tree.leaf_of_row(5)),)

            after = sharded.repair(report)
            assert after.clean
            np.testing.assert_array_equal(
                replica.store.read_table_rows("drop_points"), clean
            )

    def test_verify_cost_is_k_log_n_not_full_scan(self, series):
        with ShardedIndex.build(
            series, EPS, WINDOW, n_shards=1, max_gap=MAX_GAP, replicas=2
        ) as sharded:
            shard = sharded.shards[0]
            replica = shard.replicas[1]
            n_rows = replica.store.read_table_rows("drop_points").shape[0]
            assert n_rows > 200  # big enough that log n << n
            k = 3
            for row in (0, n_rows // 2, n_rows - 1):
                bad = replica.store.read_table_rows("drop_points", row,
                                                    row + 1).copy()
                bad[0, 0] += 1.0
                replica.store.replace_table_rows("drop_points", row, bad)

            before = REGISTRY.get("repro_verify_ranges_checked").value
            report = sharded.verify(leaf_size=8)
            checked = (
                REGISTRY.get("repro_verify_ranges_checked").value - before
            )
            assert report.ranges_checked == checked
            assert not report.clean
            tree = cks.build_tree(
                shard.primary.store.read_table_rows("drop_points"),
                "drop_points", leaf_size=8,
            )
            # k divergent rows: O(k log n) checksum ranges, not the
            # O(n) a full row-scan diff would read
            assert checked <= 4 * (1 + 2 * k * len(tree.levels))
            assert checked < n_rows

    def test_primary_drift_repaired_from_sibling_and_resealed(
        self, series
    ):
        with ShardedIndex.build(
            series, EPS, WINDOW, n_shards=1, max_gap=MAX_GAP, replicas=2
        ) as sharded:
            shard = sharded.shards[0]
            primary = shard.primary
            clean = primary.store.read_table_rows("jump_points")
            bad = clean[0:1].copy()
            bad[0, 0] += 2.0
            primary.store.replace_table_rows("jump_points", 0, bad)

            report = sharded.verify()
            sealed_divs = [
                d for d in report.divergences if d.against == "sealed"
            ]
            assert sealed_divs and sealed_divs[0].replica == 0
            after = sharded.repair(report)
            assert after.clean
            np.testing.assert_array_equal(
                primary.store.read_table_rows("jump_points"), clean
            )
            # the seal was refreshed: a fresh verify is also clean
            assert sharded.verify().clean

    def test_rebuild_from_peer_checksum_gated_cutover(self, series):
        with ShardedIndex.build(
            series, EPS, WINDOW, n_shards=1, max_gap=MAX_GAP, replicas=2
        ) as sharded:
            shard = sharded.shards[0]
            replica = shard.replicas[1]
            old_store = replica.store
            sharded._rebuild_replica(shard, 1, shard.primary)
            assert replica.store is not old_store
            for table in cks.TABLES:
                np.testing.assert_array_equal(
                    replica.store.read_table_rows(table),
                    shard.primary.store.read_table_rows(table),
                )
            assert sharded.verify().clean
            # the rebuilt replica still answers queries
            outcome = shard.search_outcome("drop", T, V)
            assert outcome.status is ResultStatus.COMPLETE

    @settings(max_examples=15, deadline=None)
    @given(
        table=st.sampled_from(list(cks.TABLES)),
        data=st.data(),
    )
    def test_property_single_mutation_exact_leaf_and_byte_repair(
        self, table, data
    ):
        """Any single mutated replica row diverges in exactly its leaf
        range, and repair restores byte-identical rows."""
        series = gapped_series(episodes=2, n=150, seed=7)
        with ShardedIndex.build(
            series, EPS, WINDOW, n_shards=1, max_gap=MAX_GAP,
            replicas=2, leaf_size=8,
        ) as sharded:
            shard = sharded.shards[0]
            replica = shard.replicas[1]
            clean = replica.store.read_table_rows(table)
            n = clean.shape[0]
            if n == 0:
                return
            row = data.draw(
                st.integers(min_value=0, max_value=n - 1), label="row"
            )
            col = data.draw(
                st.integers(min_value=0, max_value=clean.shape[1] - 1),
                label="col",
            )
            bad = clean[row : row + 1].copy()
            bad[0, col] += 0.5
            replica.store.replace_table_rows(table, row, bad)

            report = sharded.verify()
            divs = [d for d in report.divergences]
            assert len(divs) == 1
            tree = cks.build_tree(clean, table, leaf_size=8)
            assert divs[0].table == table
            assert divs[0].ranges == (
                tree.leaf_range(tree.leaf_of_row(row)),
            )
            after = sharded.repair(report)
            assert after.clean
            np.testing.assert_array_equal(
                replica.store.read_table_rows(table), clean
            )


class TestSqlitePersistence:
    def test_read_replace_roundtrip(self, tmp_path, walk_series):
        with SegDiffIndex.build(
            walk_series, EPS, WINDOW, backend="sqlite",
            path=str(tmp_path / "x.idx"),
        ) as index:
            rows = index.store.read_table_rows("drop_points")
            assert rows.shape[1] == 6
            patch = rows[3:5].copy()
            patch[:, 1] += 1.0
            index.store.replace_table_rows("drop_points", 3, patch)
            again = index.store.read_table_rows("drop_points", 3, 5)
            np.testing.assert_array_equal(again, patch)

    def test_manifest_roundtrip_and_reopen(self, tmp_path, series):
        d = str(tmp_path)
        sharded = ShardedIndex.build(
            series, EPS, WINDOW, n_shards=2, max_gap=MAX_GAP,
            replicas=2, backend="sqlite", directory=d,
        )
        sharded.save_manifest(d)
        want = pair_set(sharded.search_outcome("drop", T, V).pairs)
        sharded.close()

        with ShardedIndex.open(d) as reopened:
            assert len(reopened.shards) == 2
            outcome = reopened.search_outcome("drop", T, V)
            assert pair_set(outcome.pairs) == want
            assert reopened.verify().clean

    def test_sqlite_divergence_repaired_in_place(self, tmp_path, series):
        import sqlite3

        d = str(tmp_path)
        sharded = ShardedIndex.build(
            series, EPS, WINDOW, n_shards=1, max_gap=MAX_GAP,
            replicas=2, backend="sqlite", directory=d,
        )
        sharded.save_manifest(d)
        sharded.close()
        path = str(tmp_path / "t0-r1.sqlite")
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE drop_points SET dv = dv + 9 WHERE rowid = 2"
        )
        conn.commit()
        conn.close()
        with ShardedIndex.open(d) as reopened:
            report = reopened.verify()
            assert not report.clean
            assert reopened.repair(report).clean


def transect_sensors(n=5):
    """``n`` sensors of the gapped walk, each with its own noise."""
    return {f"s{i}": gapped_series(episodes=2, seed=10 + i) for i in range(n)}


class TestCrossThreadSqlite:
    """A transect built on one thread and queried from many at once:
    each SQLite shard answers every thread through that thread's own
    reader connection, in both the planned and the index mode."""

    QUERIES = [(T, V), (WINDOW, -1.0), (HOUR / 2, -0.5)]

    @pytest.fixture(scope="class")
    def expected(self):
        """Per query: the union of the per-sensor reference answers."""
        out = {}
        for t, v in self.QUERIES:
            union = set()
            for series in transect_sensors().values():
                with SegDiffIndex.build(series, EPS, WINDOW) as idx:
                    union.update(idx.search_drops(t, v, mode="scan"))
            out[t, v] = sorted(p.as_tuple() for p in union)
        return out

    def test_eight_threads_auto_and_index(self, tmp_path, expected):
        n_threads = 8
        with ShardedIndex.build_transect(
            transect_sensors(), EPS, WINDOW, backend="sqlite",
            directory=str(tmp_path),
        ) as sharded:
            start = threading.Barrier(n_threads)
            answers, errors = [], []

            def ask():
                try:
                    start.wait()
                    for mode in ("auto", "index"):
                        for t, v in self.QUERIES:
                            out = sharded.search_outcome(
                                "drop", t, v, mode=mode
                            )
                            answers.append((t, v, mode, out))
                except BaseException as exc:  # noqa: BLE001 - asserted
                    errors.append(exc)

            workers = [threading.Thread(target=ask) for _ in range(n_threads)]
            switch = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # interleave the readers finely
            try:
                for w in workers:
                    w.start()
                for w in workers:
                    w.join(timeout=120)
            finally:
                sys.setswitchinterval(switch)
            assert not any(w.is_alive() for w in workers)
        assert not errors, errors
        assert len(answers) == n_threads * 2 * len(self.QUERIES)
        for t, v, mode, out in answers:
            assert out.status is ResultStatus.COMPLETE, (mode, out.error)
            assert expected[t, v], (t, v)
            assert len(set(out.pairs)) == len(out.pairs)
            assert pair_set(out.pairs) == expected[t, v], (t, v, mode)

    def test_max_workers_warns_and_changes_no_answer(
        self, tmp_path, expected
    ):
        d = str(tmp_path)
        with pytest.warns(DeprecationWarning, match="max_workers"):
            built = ShardedIndex.build_transect(
                transect_sensors(), EPS, WINDOW, backend="sqlite",
                directory=d, max_workers=2,
            )
        with built:
            built.save_manifest(d)
        with pytest.warns(DeprecationWarning, match="max_workers"):
            reopened = ShardedIndex.open(d, max_workers=2)
        with reopened:
            for (t, v), want in expected.items():
                out = reopened.search_outcome("drop", t, v, mode="auto")
                assert pair_set(out.pairs) == want


class TestBuildSafety:
    @pytest.mark.parametrize("bad", ["a/b", "../esc", "", ".", ".."])
    def test_shard_id_must_be_a_file_name(self, tmp_path, walk_series, bad):
        d = tmp_path / "d"
        d.mkdir()
        with pytest.raises(InvalidParameterError, match=repr(bad)):
            ShardedIndex.build_transect(
                {"ok": walk_series, bad: walk_series}, EPS, WINDOW,
                backend="sqlite", directory=str(d),
            )
        assert list(tmp_path.rglob("*")) == [d]

    def test_memory_build_accepts_any_id(self, walk_series):
        with ShardedIndex.build_transect(
            {"a/b": walk_series, "..": walk_series}, EPS, WINDOW
        ) as transect:
            assert transect.search_drops(T, V, sensors=["a/b"]) == (
                transect.search_drops(T, V, sensors=[".."])
            )

    def test_failed_transect_build_closes_built_shards(
        self, tmp_path, walk_series, second_build_fails, open_files
    ):
        built, closed = second_build_fails
        with pytest.raises(StorageError, match="injected"):
            ShardedIndex.build_transect(
                {"a": walk_series, "b": walk_series}, EPS, WINDOW,
                backend="sqlite", directory=str(tmp_path),
            )
        assert len(built) == 1 and built[0] in closed
        assert open_files(tmp_path) == []

    def test_failed_time_shard_build_closes_built_shards(
        self, tmp_path, series, second_build_fails, open_files
    ):
        built, closed = second_build_fails
        with pytest.raises(StorageError, match="injected"):
            ShardedIndex.build(
                series, EPS, WINDOW, n_shards=2, max_gap=MAX_GAP,
                backend="sqlite", directory=str(tmp_path),
            )
        assert len(built) == 1 and built[0] in closed
        assert open_files(tmp_path) == []

    def test_failed_open_closes_opened_shards(
        self, tmp_path, walk_series, open_files
    ):
        d = str(tmp_path)
        with ShardedIndex.build_transect(
            {"a": walk_series, "b": walk_series}, EPS, WINDOW,
            backend="sqlite", directory=d,
        ) as transect:
            transect.save_manifest(d)
        with open(tmp_path / "b-r0.sqlite", "wb") as fh:
            fh.write(b"\x00" * 4096)
        with pytest.raises(StorageError):
            ShardedIndex.open(d)
        assert open_files(tmp_path) == []


class TestHigherLevelEntryPoints:
    def test_tiered_search_outcome_routes(self, walk_series):
        from repro.core.tiered import TieredIndex

        with TieredIndex.build(
            walk_series, [0.1, 0.8], WINDOW
        ) as tiered:
            outcome = tiered.search_outcome("drop", T, V)
            assert outcome.status is ResultStatus.COMPLETE
            assert pair_set(outcome.pairs) == pair_set(
                tiered.search_drops(T, V)
            )

    def test_transect_matches_per_sensor(self):
        sensors = {
            "a": gapped_series(episodes=1, seed=3),
            "b": gapped_series(episodes=1, seed=4),
        }
        with ShardedIndex.build_transect(sensors, EPS, WINDOW) as transect:
            want = []
            for name in sensors:
                direct = transect.shard(name).primary.search_drops(T, V)
                routed = transect.search_drops(T, V, sensors=[name])
                assert pair_set(routed) == pair_set(direct)
                want.extend(p.as_tuple() for p in direct)
            outcome = transect.search_outcome("drop", T, V)
            assert outcome.status is ResultStatus.COMPLETE
            assert pair_set(outcome.pairs) == sorted(set(want))

    def test_metrics_registered(self, series):
        with ShardedIndex.build(
            series, EPS, WINDOW, n_shards=2, max_gap=MAX_GAP
        ) as sharded:
            sharded.search_outcome("drop", T, V)
            for shard in sharded.shards:
                counter = REGISTRY.get(
                    "repro_shard_queries_total",
                    {"shard": shard.shard_id, "status": "ok"},
                )
                assert counter is not None and counter.value >= 1


class TestShardCLI:
    @pytest.fixture
    def shard_dir(self, tmp_path, series):
        from repro.cli import main
        from repro.datagen import save_series_csv

        csv = str(tmp_path / "s.csv")
        save_series_csv(series, csv)
        d = str(tmp_path / "shards")
        assert main([
            "shard-build", csv, "--directory", d,
            "--shards", "2", "--replicas", "2",
            "--max-gap", str(MAX_GAP),
        ]) == 0
        return d

    def test_verify_clean_then_corrupt_then_repair(self, shard_dir):
        import os
        import sqlite3

        from repro.cli import main

        assert main(["verify", shard_dir]) == 0
        victim = next(
            os.path.join(shard_dir, f)
            for f in sorted(os.listdir(shard_dir))
            if f.endswith("-r1.sqlite")
        )
        conn = sqlite3.connect(victim)
        conn.execute("UPDATE drop_points SET dv = dv + 9 WHERE rowid = 1")
        conn.commit()
        conn.close()
        assert main(["verify", shard_dir]) == 1
        assert main(["repair", shard_dir]) == 0
        assert main(["verify", shard_dir]) == 0

    def test_verify_unsealed_single_index_errors(self, tmp_path,
                                                 walk_series):
        from repro.cli import main

        path = str(tmp_path / "plain.idx")
        with SegDiffIndex.build(
            walk_series, EPS, WINDOW, backend="sqlite", path=path
        ):
            pass
        assert main(["verify", path]) == 1

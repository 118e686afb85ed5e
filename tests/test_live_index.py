"""Tests for the live (streaming, time-partitioned) index.

The headline contract is **batch ≡ live**: a LiveIndex fed a stream —
through any schedule of seals, compactions and reopens — answers every
query identically to a batch-built :class:`SegDiffIndex` over the same
observations.  On top of that: snapshot isolation under a concurrent
writer, crash-consistent manifests, TTL retention that never disturbs
pinned readers, and partition pruning visible in ``explain``.
"""

import os
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.index import SegDiffIndex
from repro.core.live import LiveIndex
from repro.errors import (
    InvalidParameterError,
    QueryError,
    StorageError,
)
from repro.obs.metrics import REGISTRY
from repro.storage.partitions import MANIFEST_NAME, PartitionManifest

HOUR = 3600.0

EPS = 0.8
WINDOW = 300.0

DROP_QUERIES = [(30.0, -1.0), (80.0, -2.5), (150.0, -4.0), (300.0, -0.5)]
JUMP_QUERIES = [(30.0, 1.0), (150.0, 2.5)]


def make_walk(seed, n=600):
    rng = np.random.default_rng(seed)
    ts = np.cumsum(rng.uniform(0.5, 3.0, n))
    vs = np.cumsum(rng.normal(0.0, 1.0, n))
    return ts, vs


def reference_index(ts, vs, finalize=True):
    ref = SegDiffIndex(EPS, WINDOW)
    for t, v in zip(ts, vs):
        ref.append(float(t), float(v))
    if finalize:
        ref.finalize()
    else:
        ref.checkpoint()
    return ref


def tuples(pairs):
    return [p.as_tuple() for p in pairs]


def assert_equivalent(ref, live_like):
    """Every canonical query answers identically on both."""
    for T, V in DROP_QUERIES:
        assert tuples(ref.search_drops(T, V)) == tuples(
            live_like.search_drops(T, V)
        ), ("drop", T, V)
    for T, V in JUMP_QUERIES:
        assert tuples(ref.search_jumps(T, V)) == tuples(
            live_like.search_jumps(T, V)
        ), ("jump", T, V)


class TestBatchLiveEquivalence:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 10_000),
        seal_rows=st.sampled_from([50, 400, 3000, 10**9]),
        use_array=st.booleans(),
    )
    def test_differential_equivalence_memory(self, seed, seal_rows, use_array):
        ts, vs = make_walk(seed, n=300)
        ref = reference_index(ts, vs)
        live = LiveIndex(EPS, WINDOW, seal_rows=seal_rows)
        if use_array:
            live.append_array(ts, vs, batch_size=97)
        else:
            for t, v in zip(ts, vs):
                live.append(float(t), float(v))
        live.finalize()
        assert_equivalent(ref, live)
        # auto mode routes through per-partition cost models; the answer
        # must not depend on the access path
        T, V = DROP_QUERIES[1]
        assert tuples(live.search_drops(T, V, mode="auto")) == tuples(
            ref.search_drops(T, V)
        )
        ref.close()
        live.close()

    def test_equivalence_sqlite_backend_and_reopen(self, tmp_path):
        ts, vs = make_walk(3, n=500)
        ref = reference_index(ts, vs)
        d = str(tmp_path / "live.d")
        live = LiveIndex(EPS, WINDOW, directory=d, seal_rows=2000)
        live.append_array(ts, vs, batch_size=60)
        live.finalize()
        assert len(live.partitions) >= 2  # actually partitioned
        assert_equivalent(ref, live)
        live.close()
        # durable: a fresh process (SegDiffIndex.open_live) sees the
        # identical answers
        reopened = SegDiffIndex.open_live(d)
        assert reopened.finalized
        assert_equivalent(ref, reopened)
        reopened.close()
        ref.close()

    def test_search_batch_matches_per_query_search(self):
        from repro.core.queries import DropQuery, JumpQuery

        ts, vs = make_walk(5, n=400)
        live = LiveIndex(EPS, WINDOW, seal_rows=300)
        live.append_array(ts, vs, batch_size=50)
        live.finalize()
        queries = [DropQuery(T, V) for T, V in DROP_QUERIES] + [
            JumpQuery(T, V) for T, V in JUMP_QUERIES
        ]
        batched = live.search_batch(queries)
        with live.snapshot() as snap:
            for q, got in zip(queries, batched):
                want = (
                    snap.search_drops(q.t_threshold, q.v_threshold)
                    if q.kind == "drop"
                    else snap.search_jumps(q.t_threshold, q.v_threshold)
                )
                assert tuples(got) == tuples(want)
        live.close()


class TestTimePruning:
    def _live(self, seed=7):
        ts, vs = make_walk(seed, n=500)
        live = LiveIndex(EPS, WINDOW, seal_rows=300)
        live.append_array(ts, vs, batch_size=40)
        live.finalize()
        return live, ts

    def test_t_range_filters_by_overlap(self):
        live, ts = self._live()
        T, V = 150.0, -1.0
        lo, hi = float(ts[100]), float(ts[220])
        full = live.search_drops(T, V)
        ranged = live.search_drops(T, V, t_range=(lo, hi))
        want = [p for p in full if p.t_a >= lo and p.t_d <= hi]
        assert tuples(ranged) == tuples(want)
        assert 0 < len(ranged) < len(full)
        live.close()

    def test_explain_reports_pruned_partitions(self):
        live, ts = self._live()
        specs = live.partitions
        assert len(specs) >= 3
        lo, hi = float(ts[0]), float(ts[40])
        fully_outside = sum(
            1 for s in specs
            if s.feature_t_max < lo or s.feature_t_min > hi
        )
        assert fully_outside >= 1
        ex = live.explain("drop", 150.0, -1.0, t_range=(lo, hi))
        assert ex["partitions_total"] == len(specs)
        assert ex["partitions_pruned"] >= fully_outside
        assert (
            ex["partitions_scanned"] + ex["partitions_pruned"]
            == ex["partitions_total"]
        )
        # pruning must not change the answer
        assert ex["n_pairs"] == len(live.search_drops(150.0, -1.0,
                                                      t_range=(lo, hi)))
        live.close()

    def test_t_range_on_plain_index_session(self):
        # the same predicate works un-partitioned, straight through the
        # engine session
        ts, vs = make_walk(9, n=300)
        ref = reference_index(ts, vs)
        T, V = 150.0, -1.0
        lo, hi = float(ts[50]), float(ts[150])
        full = ref.search_drops(T, V)
        ranged = ref.search_drops(T, V, t_range=(lo, hi))
        want = [p for p in full if p.t_a >= lo and p.t_d <= hi]
        assert tuples(ranged) == tuples(want)
        with pytest.raises(InvalidParameterError):
            ref.search_drops(T, V, t_range=(hi, lo))
        ref.close()


class TestSnapshotIsolation:
    def test_snapshot_equals_checkpointed_prefix(self):
        ts, vs = make_walk(13, n=600)
        live = LiveIndex(EPS, WINDOW, seal_rows=400)
        live.append_array(ts[:350], vs[:350])
        with live.snapshot() as snap:
            n = snap.n_observations
            assert n == 350
            ref = reference_index(ts[:n], vs[:n], finalize=False)
            for T, V in DROP_QUERIES:
                assert tuples(snap.search_drops(T, V)) == tuples(
                    ref.search_drops(T, V)
                )
            # the writer moves on; the pinned snapshot must not
            live.append_array(ts[350:], vs[350:])
            live.seal()
            live.compact(max_rows=10**9)
            for T, V in DROP_QUERIES:
                assert tuples(snap.search_drops(T, V)) == tuples(
                    ref.search_drops(T, V)
                )
            ref.close()
        live.close()

    def test_snapshot_shares_hot_tables_under_writer(self):
        """The hot partition reaches a snapshot as the hot store's own
        read-only arrays, not a copy; appends (which thaw the hot store),
        a second snapshot (which re-freezes it) and a seal (which retires
        it) leave the snapshot's answers unchanged."""
        ts, vs = make_walk(23, n=600)
        live = LiveIndex(EPS, WINDOW, seal_rows=10**9)
        live.append_array(ts[:300], vs[:300])

        def answers(snap):
            return {
                (mode, T, V): tuples(snap.search_drops(T, V, mode=mode))
                for mode in ("index", "scan") for T, V in DROP_QUERIES
            } | {
                (mode, T, V): tuples(snap.search_jumps(T, V, mode=mode))
                for mode in ("index", "scan") for T, V in JUMP_QUERIES
            }

        with live.snapshot() as snap:
            assert not live.partitions  # everything is still hot
            hot, shared = live._hot.store, snap._hot.store
            for kind in ("drop", "jump"):
                block = shared.scan_lines_array(kind)
                assert np.shares_memory(block, hot.scan_lines_array(kind))
                assert not block.flags.writeable
            ref = reference_index(ts[:300], vs[:300], finalize=False)
            want = answers(snap)
            assert want == answers(ref)
            live.append_array(ts[300:450], vs[300:450])
            live.snapshot().close()
            live.append_array(ts[450:], vs[450:])
            live.seal()
            assert live.partitions
            assert answers(snap) == want
            ref.close()
        live.close()

    def test_sixteen_readers_under_concurrent_writer(self):
        ts, vs = make_walk(17, n=1200)
        live = LiveIndex(EPS, WINDOW, seal_rows=300, auto_compact=True,
                         compact_rows=600)
        live.append_array(ts[:200], vs[:200])
        stop = threading.Event()
        errors = []

        def writer():
            i = 200
            try:
                while i < len(ts) and not stop.is_set():
                    j = min(i + 50, len(ts))
                    live.append_array(ts[i:j], vs[i:j])
                    i = j
                    live.seal()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def reader():
            try:
                for _ in range(5):
                    with live.snapshot() as snap:
                        first = {
                            (T, V): tuples(snap.search_drops(T, V))
                            for T, V in DROP_QUERIES[:2]
                        }
                        # re-query: a pinned snapshot never changes,
                        # whatever the writer does meanwhile
                        for _ in range(3):
                            for (T, V), want in first.items():
                                got = tuples(snap.search_drops(T, V))
                                if got != want:
                                    raise AssertionError(
                                        f"snapshot drifted for {(T, V)}"
                                    )
            except Exception as exc:
                errors.append(exc)

        w = threading.Thread(target=writer)
        readers = [threading.Thread(target=reader) for _ in range(16)]
        w.start()
        for r in readers:
            r.start()
        for r in readers:
            r.join()
        stop.set()
        w.join()
        assert errors == []
        # the writer stops when the readers are done, which may come
        # before the end of the series: feed it the rest
        n = live.n_observations
        live.append_array(ts[n:], vs[n:])
        live.seal()
        # and after the dust settles the live answer is the batch answer
        live.finalize()
        ref = reference_index(ts, vs)
        assert_equivalent(ref, live)
        ref.close()
        live.close()

    def test_ttl_retention_preserves_pinned_readers(self, tmp_path):
        ts, vs = make_walk(19, n=500)
        d = str(tmp_path / "live.d")
        live = LiveIndex(EPS, WINDOW, directory=d, seal_rows=300)
        live.append_array(ts, vs, batch_size=40)
        live.seal()
        assert len(live.partitions) >= 3
        snap = live.snapshot()
        before = {
            (T, V): tuples(snap.search_drops(T, V)) for T, V in DROP_QUERIES
        }
        specs_before = live.partitions
        # expire everything strictly older than the second-newest
        cutoff_ttl = float(
            live.watermark - live.partitions[-2].t_max + 1e-9
        )
        dropped = live.expire(ttl=cutoff_ttl)
        assert dropped  # retention really dropped partitions
        old_files = {
            os.path.join(d, s.file)
            for s in specs_before if s.partition_id in dropped
        }
        remaining = {s.partition_id for s in live.partitions}
        assert not set(dropped) & remaining
        # the pinned reader still sees every partition it opened over
        for (T, V), want in before.items():
            assert tuples(snap.search_drops(T, V)) == want
        for f in old_files:
            assert os.path.exists(f)  # disposal deferred to last unpin
        snap.close()
        for s in live.partitions:
            pass  # live set unaffected by reader close
        for f in old_files:
            assert not os.path.exists(f)  # reaped with the pin
        live.close()


class TestCrashRecovery:
    def test_failed_manifest_install_rolls_back_cleanly(self, tmp_path,
                                                        monkeypatch):
        ts, vs = make_walk(23, n=400)
        d = str(tmp_path / "live.d")
        live = LiveIndex(EPS, WINDOW, directory=d, seal_rows=10**9)
        live.append_array(ts, vs)

        real_replace = os.replace

        def boom(src, dst):
            if dst.endswith(MANIFEST_NAME):
                raise OSError("simulated power loss at manifest install")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            live.seal()
        monkeypatch.setattr(os, "replace", real_replace)
        # the failed seal left no partition, no orphan file, and the hot
        # data intact — retrying just works (the hot-partition WAL is
        # the only other legitimate resident)
        assert live.partitions == []
        assert all(
            f in (MANIFEST_NAME, "hot.wal") for f in os.listdir(d)
        ), os.listdir(d)
        assert live.seal() is not None
        live.finalize()
        ref = reference_index(ts, vs)
        assert_equivalent(ref, live)
        ref.close()
        live.close()

    def test_crash_mid_seal_sweeps_orphan_and_replays(self, tmp_path):
        ts, vs = make_walk(29, n=500)
        d = str(tmp_path / "live.d")
        live = LiveIndex(EPS, WINDOW, directory=d, seal_rows=10**9)
        live.append_array(ts[:250], vs[:250])
        live.seal()
        sealed_file = os.path.join(d, live.partitions[0].file)
        generation = live.generation
        live.close()

        # crash matrix, step between "store file durable" and "manifest
        # installed": an unreferenced partition file and a torn tmp
        # manifest are on disk
        orphan = os.path.join(d, "p000001.sqlite")
        with open(sealed_file, "rb") as src, open(orphan, "wb") as dst:
            dst.write(src.read())
        with open(os.path.join(d, MANIFEST_NAME + ".tmp"), "w") as fh:
            fh.write("{torn")

        reopened = LiveIndex.open(d)
        assert not os.path.exists(orphan)
        assert not os.path.exists(os.path.join(d, MANIFEST_NAME + ".tmp"))
        assert reopened.generation == generation  # previous gen intact
        # the producer replays its stream; pre-watermark rows are skipped
        reopened.append_array(ts, vs)
        reopened.finalize()
        ref = reference_index(ts, vs)
        assert_equivalent(ref, reopened)
        reopened.close()
        ref.close()

    def test_reopen_resumes_observation_count_and_watermark(self, tmp_path):
        ts, vs = make_walk(31, n=400)
        d = str(tmp_path / "live.d")
        live = LiveIndex(EPS, WINDOW, directory=d, seal_rows=500)
        live.append_array(ts, vs)
        live.seal()
        wm = live.watermark
        live.close()
        reopened = LiveIndex.open(d)
        assert reopened.watermark == wm
        # covered observations restart from the manifest; replaying the
        # whole stream may only add the uncovered tail
        assert 0 < reopened.n_observations <= len(ts)
        reopened.close()

    def test_open_or_create_rejects_parameter_mismatch(self, tmp_path):
        d = str(tmp_path / "live.d")
        live = LiveIndex.open_or_create(EPS, WINDOW, d)
        live.close()
        with pytest.raises(StorageError):
            LiveIndex.open_or_create(EPS * 2, WINDOW, d)
        again = LiveIndex.open_or_create(EPS, WINDOW, d)
        again.close()

    def test_create_over_existing_manifest_requires_open(self, tmp_path):
        d = str(tmp_path / "live.d")
        LiveIndex(EPS, WINDOW, directory=d).close()
        with pytest.raises(StorageError):
            LiveIndex(EPS, WINDOW, directory=d)


class TestCompactionAndLifecycle:
    def test_compaction_is_lossless_and_invalidates_sessions(self):
        ts, vs = make_walk(37, n=500)
        live = LiveIndex(EPS, WINDOW, seal_rows=250)
        live.append_array(ts, vs, batch_size=40)
        live.finalize()
        n_parts = len(live.partitions)
        assert n_parts >= 3
        before = {
            (T, V): tuples(live.search_drops(T, V)) for T, V in DROP_QUERIES
        }
        # regression (planner-sample invalidation): warm a partition's
        # cached session, then compact it away — retire must drop it
        victim = live._sealed[0]
        warmed = victim.session()
        assert victim.session() is warmed
        merges = live.compact(max_rows=10**9, min_run=2)
        assert merges >= 1
        assert len(live.partitions) < n_parts
        assert victim.retired and victim._session is None
        for (T, V), want in before.items():
            assert tuples(live.search_drops(T, V)) == want
        live.close()

    def test_seal_keeps_segmenter_tail_pending(self):
        # sealing mid-stream must not flush the open segment: finalize
        # after any seal schedule yields the batch answer (covered by the
        # differential test) and, mid-stream, the watermark only moves
        # at segment closes
        ts, vs = make_walk(41, n=200)
        live = LiveIndex(EPS, WINDOW, seal_rows=10**9)
        live.append_array(ts, vs)
        wm = live.watermark
        live.seal()
        assert live.watermark == wm  # seal closed no extra segment
        live.finalize()
        assert live.watermark == float(ts[-1])  # finalize flushed the tail
        live.close()

    def test_validation_errors(self):
        live = LiveIndex(EPS, WINDOW)
        with pytest.raises(QueryError):
            live.search_drops(WINDOW + 1.0, -1.0)
        with pytest.raises(InvalidParameterError):
            LiveIndex(EPS, WINDOW, seal_rows=0)
        with pytest.raises(InvalidParameterError):
            LiveIndex(EPS, WINDOW, backend="sqlite")  # needs a directory
        with pytest.raises(InvalidParameterError):
            live.expire()  # no ttl configured, none given
        live.finalize()
        with pytest.raises(StorageError):
            live.append(1.0, 1.0)
        live.close()
        with pytest.raises(StorageError):
            live.snapshot()

    def test_metrics_move(self):
        def snap():
            s = REGISTRY.snapshot()
            return {
                "seals": s.get("repro_partition_seals_total", 0.0),
                "compactions": s.get("repro_compactions_total", 0.0),
                "expired": s.get("repro_partitions_expired_total", 0.0),
                "active": s.get("repro_partitions_active", 0.0),
                "flush_n": s.get("repro_partition_flush_rows_count", 0.0),
            }

        ts, vs = make_walk(43, n=500)
        before = snap()
        live = LiveIndex(EPS, WINDOW, seal_rows=250)
        live.append_array(ts, vs, batch_size=40)
        live.seal()
        mid = snap()
        assert mid["seals"] > before["seals"]
        assert mid["flush_n"] > before["flush_n"]
        assert mid["active"] > before["active"]
        live.compact(max_rows=10**9)
        # everything is merged into one partition whose t_max == the
        # watermark, so a zero ttl expires it
        live.expire(ttl=0.0)
        after = snap()
        assert after["compactions"] > mid["compactions"]
        assert after["expired"] > mid["expired"]
        live.close()
        assert snap()["active"] == before["active"]

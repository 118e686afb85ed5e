"""Durability tests for the live tier: hot-partition WAL, disk-fault
injection matrix, and self-healing recovery.

The headline contract: a crash anywhere in ingest loses at most the
un-fsynced WAL tail, ``LiveIndex.open()`` recovers without any source
replay, no torn partition is ever visible to readers, and the recovered
index answers every query bit-identically to a batch build over the
recovered prefix.  The crash points are *enumerated* by the fault
injector (every counted file operation of a reference workload), not
hand-picked.
"""

import os
import sqlite3
import tempfile
from functools import partial

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.core.index import SegDiffIndex
from repro.core.live import LiveIndex
from repro.errors import InvalidParameterError, StorageError
from repro.obs import recorder as flight
from repro.storage.faults import (
    FaultInjected,
    FaultInjector,
    FaultPolicy,
)
from repro.storage.livewal import WAL_NAME, LiveWAL
from repro.storage.partitions import MANIFEST_NAME, PartitionManifest

from .crashmatrix import crash_at, fault_points

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
    for T, V in DROP_QUERIES:
        assert tuples(ref.search_drops(T, V)) == tuples(
            live_like.search_drops(T, V)
        ), ("drop", T, V)
    for T, V in JUMP_QUERIES:
        assert tuples(ref.search_jumps(T, V)) == tuples(
            live_like.search_jumps(T, V)
        ), ("jump", T, V)


def assert_prefix_equivalent(ts, vs, horizon, live_like):
    """The recovered index ≡ a batch build of the recovered prefix."""
    if horizon is None:
        k = 0
    else:
        k = int(np.searchsorted(ts, horizon, side="right"))
    ref = reference_index(ts[:k], vs[:k], finalize=False)
    try:
        assert_equivalent(ref, live_like)
    finally:
        ref.close()
    return k


def recovery_horizon(live):
    """Everything at or before this time survived the crash."""
    stats = live.stats()
    wal = stats["wal"]
    if wal is not None and wal["replayed_to"] is not None:
        return wal["replayed_to"]
    return stats["watermark"]


# ---------------------------------------------------------------------- #
# WAL: resume without source replay
# ---------------------------------------------------------------------- #


class TestLiveWAL:
    def test_reopen_without_source_replay(self, tmp_path):
        ts, vs = make_walk(3, n=400)
        d = str(tmp_path / "live.d")
        live = LiveIndex(EPS, WINDOW, directory=d, seal_rows=10**9)
        live.append_array(ts, vs)
        live.close()  # no seal, no finalize: everything is WAL-only

        reopened = LiveIndex.open(d)
        stats = reopened.stats()
        assert stats["wal"]["replayed_observations"] == len(ts)
        # no source replay: finalize directly and match the batch build
        reopened.finalize()
        ref = reference_index(ts, vs)
        assert_equivalent(ref, reopened)
        ref.close()
        reopened.close()

    def test_wal_replay_after_partial_seal(self, tmp_path):
        ts, vs = make_walk(5, n=500)
        d = str(tmp_path / "live.d")
        live = LiveIndex(EPS, WINDOW, directory=d, seal_rows=200)
        live.append_array(ts, vs)
        assert live.partitions  # at least one seal rotated the WAL
        wal_obs = live.stats()["wal"]["observations"]
        assert 0 < wal_obs < len(ts)  # sealed frames were GC'd
        live.close()

        reopened = LiveIndex.open(d)
        reopened.finalize()
        ref = reference_index(ts, vs)
        assert_equivalent(ref, reopened)
        ref.close()
        reopened.close()

    def test_torn_tail_is_swept(self, tmp_path):
        ts, vs = make_walk(7, n=300)
        d = str(tmp_path / "live.d")
        live = LiveIndex(EPS, WINDOW, directory=d, seal_rows=10**9)
        live.append_array(ts, vs)
        live.close()

        # a power cut mid-frame: garbage after the last intact record
        wal_path = os.path.join(d, WAL_NAME)
        with open(wal_path, "ab") as fh:
            fh.write(b"\x01\xff\xff\xff\xff torn tail garbage")
        scan = LiveWAL.scan(wal_path)
        assert scan["torn_bytes"] > 0
        assert scan["observations"] == len(ts)

        reopened = LiveIndex.open(d)
        assert reopened.stats()["wal"]["replayed_observations"] == len(ts)
        reopened.finalize()
        ref = reference_index(ts, vs)
        assert_equivalent(ref, reopened)
        ref.close()
        reopened.close()

    def test_gap_frames_replay(self, tmp_path):
        ts, vs = make_walk(11, n=400)
        d = str(tmp_path / "live.d")
        live = LiveIndex(EPS, WINDOW, directory=d, seal_rows=10**9)
        live.append_array(ts[:200], vs[:200])
        live.mark_gap()
        live.append_array(ts[200:], vs[200:])
        live.close()

        reopened = LiveIndex.open(d)
        reopened.finalize()
        # the reference: an identical episode split, built in memory
        mem = LiveIndex(EPS, WINDOW)
        mem.append_array(ts[:200], vs[:200])
        mem.mark_gap()
        mem.append_array(ts[200:], vs[200:])
        mem.finalize()
        assert_equivalent(mem, reopened)
        mem.close()
        reopened.close()

    def test_finalize_deletes_wal(self, tmp_path):
        ts, vs = make_walk(13, n=200)
        d = str(tmp_path / "live.d")
        live = LiveIndex(EPS, WINDOW, directory=d)
        live.append_array(ts, vs)
        assert os.path.exists(os.path.join(d, WAL_NAME))
        live.finalize()
        assert not os.path.exists(os.path.join(d, WAL_NAME))
        live.close()

    def test_wal_off_restores_source_replay(self, tmp_path):
        ts, vs = make_walk(17, n=400)
        d = str(tmp_path / "live.d")
        live = LiveIndex(
            EPS, WINDOW, directory=d, seal_rows=150, wal=False
        )
        live.append_array(ts, vs)
        assert not os.path.exists(os.path.join(d, WAL_NAME))
        assert live.stats()["wal"] is None
        live.close()

        # without a WAL the producer must re-feed; pre-watermark
        # observations are skipped (the PR 7 contract, unchanged)
        reopened = LiveIndex.open(d, wal=False)
        reopened.append_array(ts, vs)
        reopened.finalize()
        ref = reference_index(ts, vs)
        assert_equivalent(ref, reopened)
        ref.close()
        reopened.close()

    def test_wal_needs_directory(self):
        with pytest.raises(InvalidParameterError):
            LiveIndex(EPS, WINDOW, wal=True)

    def test_wal_rejects_bad_magic(self, tmp_path):
        path = str(tmp_path / "not.wal")
        with open(path, "wb") as fh:
            fh.write(b"NOTAWAL0" + b"\x00" * 64)
        with pytest.raises(StorageError):
            LiveWAL(path)

    def test_wal_refuses_version_1(self, tmp_path):
        """A v1 log only survives a crash of the old build: refused,
        naming the version, never misread as v2 records."""
        path = str(tmp_path / "old.wal")
        with open(path, "wb") as fh:
            fh.write(b"SDLWAL01" + b"\x00" * 64)
        with pytest.raises(StorageError, match="version-1"):
            LiveWAL(path)
        with pytest.raises(StorageError, match="version-1"):
            LiveWAL.scan(path)


# ---------------------------------------------------------------------- #
# size-aware seal policy
# ---------------------------------------------------------------------- #


class TestWalRotation:
    def test_rotation_fsyncs_the_directory(self, tmp_path):
        """A seal's hot.wal rotation is an atomic install: the rename is
        followed by a directory fsync, so a power cut after the seal
        cannot bring the old log (and its sealed frames) back."""
        d = str(tmp_path / "live.d")
        ts, vs = make_walk(3, n=300)
        inj = FaultInjector()
        live = LiveIndex(EPS, WINDOW, directory=d, seal_rows=10**9, _fs=inj)
        try:
            live.append_array(ts, vs)
            start = len(inj.op_log)
            live.seal()
            ops = inj.op_log[start:]
        finally:
            live.close()
            inj.close_all()
        i = ops.index(("replace", os.path.join(d, WAL_NAME)))
        assert ops[i + 1] == ("fsync", d), ops[i:]


@pytest.mark.parametrize("backend", ["sqlite", "minidb"])
class TestLoneObservationBeforeGap:
    def test_resume_keeps_the_break(self, tmp_path, backend):
        """Without a WAL, one observation between a seal and a gap leaves
        nothing to seal.  The break must still survive a resume: the
        producer's replay of that observation and the next episode must
        not join into a segment that bridges the outage."""
        from repro.datagen import random_walk_series

        hour = 3600.0
        first = random_walk_series(400, dt=300.0, seed=3)
        second = random_walk_series(400, dt=300.0, t0=121_800.0, seed=4)
        lone = (120_000.0, float(first.values[-1]))

        def feed_second(index):
            index.append(*lone)
            index.append_array(second.times, second.values)

        d = str(tmp_path / "live.d")
        live = LiveIndex(0.2, 4 * hour, directory=d, backend=backend,
                         wal=False, seal_rows=10**6)
        live.append_array(first.times, first.values)
        live.mark_gap()
        live.seal()
        live.append(*lone)
        live.mark_gap()
        live.close()

        resumed = LiveIndex.open(d, wal=False)
        feed_second(resumed)  # replays the lone observation first
        resumed.finalize()

        uninterrupted = LiveIndex(0.2, 4 * hour)
        uninterrupted.append_array(first.times, first.values)
        uninterrupted.mark_gap()
        uninterrupted.append(*lone)
        uninterrupted.mark_gap()
        uninterrupted.append_array(second.times, second.values)
        uninterrupted.finalize()
        try:
            got = resumed.search_drops(3 * hour, -2.0)
            want = uninterrupted.search_drops(3 * hour, -2.0)
            assert want and got == want
            # the bridging segment (120 000 -> 121 800) starts no pair
            assert all(p.t_d != lone[0] for p in got)
            assert resumed.n_observations == uninterrupted.n_observations
        finally:
            resumed.close()
            uninterrupted.close()


class TestSealBytes:
    def test_wide_stream_seals_by_bytes_first(self, tmp_path):
        ts, vs = make_walk(19, n=500)
        d = str(tmp_path / "live.d")
        # the row threshold is unreachable: only the byte estimate of
        # this wide-ish stream can trigger the seals
        live = LiveIndex(
            EPS, WINDOW, directory=d,
            seal_rows=10**9, seal_bytes=64 * 1024,
        )
        live.append_array(ts, vs)
        stats = live.stats()
        assert stats["seal_bytes"] == 64 * 1024
        assert stats["n_partitions"] >= 1, (
            "byte-based policy never sealed"
        )
        assert stats["hot"]["est_bytes"] < 64 * 1024
        live.finalize()
        ref = reference_index(ts, vs)
        assert_equivalent(ref, live)
        ref.close()
        live.close()

    def test_est_bytes_tracks_ingest(self):
        ts, vs = make_walk(23, n=300)
        live = LiveIndex(EPS, WINDOW, seal_rows=10**9)
        assert live.stats()["hot"]["est_bytes"] == 0
        live.append_array(ts, vs)
        stats = live.stats()["hot"]
        assert stats["est_bytes"] > 0
        assert stats["est_bytes"] >= 32 * stats["n_segments"]
        live.close()

    def test_seal_bytes_validation(self):
        with pytest.raises(InvalidParameterError):
            LiveIndex(EPS, WINDOW, seal_bytes=0)


# ---------------------------------------------------------------------- #
# manifest install under disk faults (the ENOSPC regression)
# ---------------------------------------------------------------------- #


class TestManifestFaults:
    @pytest.mark.parametrize("mode", ["enospc", "error"])
    @pytest.mark.parametrize("fail_at", [1, 2, 3])
    def test_failed_install_keeps_previous_generation(
        self, tmp_path, mode, fail_at
    ):
        d = str(tmp_path / "m.d")
        os.makedirs(d)
        gen0 = PartitionManifest(epsilon=EPS, window=WINDOW)
        gen0.save(d)

        # ops of one save: write(tmp), fsync(tmp), replace -> fail each
        injector = FaultInjector(FaultPolicy(fail_at=fail_at, mode=mode))
        gen1 = gen0.with_finalized()
        with pytest.raises(OSError):
            gen1.save(d, fs=injector)

        # previous generation intact, temp file cleaned up
        loaded = PartitionManifest.load(d)
        assert loaded.generation == gen0.generation
        assert not loaded.finalized
        assert not os.path.exists(
            os.path.join(d, MANIFEST_NAME + ".tmp")
        )
        # the failure was transient: retrying just works
        gen1.save(d)
        assert PartitionManifest.load(d).finalized

    @pytest.mark.parametrize("mode", ["crash", "torn", "enospc"])
    @pytest.mark.parametrize("fail_at", [1, 2, 3, 4])
    def test_shard_manifest_install_is_atomic(self, tmp_path, mode, fail_at):
        """The shard ``manifest.json`` goes through the same install: a
        fault at any counted op of ``save_manifest`` (write, fsync,
        replace, directory fsync) leaves the previous manifest or the
        new one — never a torn file beside intact replicas."""
        from repro.datagen.series import TimeSeries
        from repro.engine import ShardedIndex

        d, elsewhere = str(tmp_path / "shards.d"), str(tmp_path / "new.d")
        os.makedirs(d)
        os.makedirs(elsewhere)
        ts = np.concatenate([np.arange(50.0), 5000.0 + np.arange(50.0)])
        vs = np.cumsum(np.random.default_rng(3).normal(0.0, 1.0, 100))
        with ShardedIndex.build(
            TimeSeries(times=ts, values=vs), EPS, WINDOW, n_shards=2,
            max_gap=100.0, backend="sqlite", directory=d,
        ) as sharded:
            manifest = sharded.save_manifest(d)
            with open(manifest, "rb") as fh:
                previous = fh.read()
            # the next manifest drops a shard, so the two differ
            smaller = ShardedIndex(sharded.shards[:1], EPS, WINDOW)
            with open(smaller.save_manifest(elsewhere), "rb") as fh:
                new = fh.read()
            assert new != previous

            injector = FaultInjector(FaultPolicy(fail_at=fail_at, mode=mode))
            try:
                smaller.save_manifest(d, _fs=injector)
            except (OSError, FaultInjected):
                pass
            assert injector.op_count >= fail_at, "fault never fired"
        with open(manifest, "rb") as fh:
            assert fh.read() in (previous, new)
        with ShardedIndex.open(d) as reopened:
            assert len(reopened.shards) in (1, 2)

    def test_enospc_mid_seal_rolls_back_and_retries(self, tmp_path):
        ts, vs = make_walk(29, n=300)
        d = str(tmp_path / "live.d")
        injector = FaultInjector()
        live = LiveIndex(
            EPS, WINDOW, directory=d, seal_rows=10**9,
            _fs=injector,
        )
        live.append_array(ts, vs)
        gen_before = live.generation

        # fail the next fsync/write/replace — whichever the seal issues
        # first — with a full disk
        injector.arm(
            FaultPolicy(fail_at=injector.op_count + 1, mode="enospc")
        )
        with pytest.raises(OSError):
            live.seal()
        injector.arm(FaultPolicy())

        assert live.partitions == []
        assert PartitionManifest.load(d).generation == gen_before
        leftovers = set(os.listdir(d)) - {MANIFEST_NAME, WAL_NAME}
        assert not leftovers, leftovers
        assert live.seal() is not None
        live.finalize()
        ref = reference_index(ts, vs)
        assert_equivalent(ref, live)
        ref.close()
        live.close()


# ---------------------------------------------------------------------- #
# the injected-fault crash matrix
# ---------------------------------------------------------------------- #

MATRIX_N = 360
MATRIX_CHUNK = 40
MATRIX_SEAL_ROWS = 150
MATRIX_SYNC_OBS = 64


def _matrix_workload(directory, backend, fs, progress=None):
    """The reference ingest whose every file op becomes a crash point.

    ``progress["fed"]`` tracks how many observations the producer
    *completed* feeding — the durability bound is measured against it,
    not the full stream, because an injected fault also stops the feed.
    """
    ts, vs = make_walk(7, n=MATRIX_N)
    live = LiveIndex(
        EPS, WINDOW, directory=directory, backend=backend,
        seal_rows=MATRIX_SEAL_ROWS, wal_sync_obs=MATRIX_SYNC_OBS,
        _fs=fs,
    )
    try:
        for i in range(0, MATRIX_N, MATRIX_CHUNK):
            live.append_array(ts[i : i + MATRIX_CHUNK],
                              vs[i : i + MATRIX_CHUNK])
            if progress is not None:
                progress["fed"] = i + MATRIX_CHUNK
        live.finalize()
    finally:
        try:
            live.close()
        except Exception:
            pass
    return ts, vs


def _matrix_points(backend, **sampling):
    """Every fault point of the workload (strided unless
    ``REPRO_CRASH_MATRIX=full``), learned from one fault-free run."""
    with tempfile.TemporaryDirectory() as tmp:
        points = fault_points(
            partial(_matrix_workload, os.path.join(tmp, "probe.d"), backend),
            **sampling,
        )
    assert points[-1] >= 10, f"workload exposes only {points[-1]} points"
    return points


# every 8th op plus the last: the stride stays put when seals add ops,
# so the points (the test ids) do too
MATRIX_FAIL_POINTS = _matrix_points("sqlite", stride=8)
# with the file facade reaching partition stores, every page a MiniDB
# seal writes (once each, no page WAL) is a crash point too; every
# 105th op plus the last (about a dozen points) — a fixed stride, a
# third of the 315 the page-WAL seal's longer workload was sampled at,
# so the points that workload shares with this one keep their ids
MINIDB_FAIL_POINTS = _matrix_points("minidb", stride=105)
MATRIX_MODES = ["crash", "torn", "enospc"]


class TestCrashMatrix:
    def test_the_workload_keeps_its_fault_points(self):
        # one write per WAL record, the same fsync points as before the
        # record format changed, and one directory fsync per hot.wal
        # rotation (ten seals: 107 -> 117)
        assert MATRIX_FAIL_POINTS[-1] == 117

    @pytest.mark.parametrize("mode", MATRIX_MODES)
    @pytest.mark.parametrize("fail_at", MATRIX_FAIL_POINTS)
    def test_recovery_at_every_fault_point(self, tmp_path, mode, fail_at):
        self._recover_at(tmp_path, "sqlite", fail_at, mode)

    @pytest.mark.parametrize("mode", MATRIX_MODES)
    @pytest.mark.parametrize("fail_at", MINIDB_FAIL_POINTS)
    def test_recovery_on_minidb_partitions(self, tmp_path, mode, fail_at):
        self._recover_at(tmp_path, "minidb", fail_at, mode)

    def _recover_at(self, tmp_path, backend, fail_at, mode):
        d = str(tmp_path / "live.d")
        progress = {"fed": 0}
        if crash_at(
            partial(_matrix_workload, d, backend, progress=progress),
            fail_at, mode,
        ) is None:
            progress["fed"] = MATRIX_N
        ts, vs = make_walk(7, n=MATRIX_N)
        fed = progress["fed"]

        if not os.path.exists(os.path.join(d, MANIFEST_NAME)):
            # crashed before the very first manifest install: nothing
            # was ever committed, so the producer starts a fresh index
            # and feeds the stream from scratch
            fresh = LiveIndex(
                EPS, WINDOW, directory=d, backend=backend,
                seal_rows=MATRIX_SEAL_ROWS,
            )
            fresh.append_array(ts, vs)
            fresh.finalize()
            ref = reference_index(ts, vs)
            assert_equivalent(ref, fresh)
            ref.close()
            fresh.close()
            return

        # self-healing reopen: torn tails swept, partial files
        # quarantined, checksums verified — and the recovered prefix is
        # bit-identical to a batch build over the same observations
        reopened = LiveIndex.open(d, scrub=True)
        if reopened.finalized:
            ref = reference_index(ts, vs)
            assert_equivalent(ref, reopened)
            ref.close()
            reopened.close()
            return
        horizon = recovery_horizon(reopened)
        if horizon is None:
            k = 0
        else:
            k = int(np.searchsorted(ts, horizon, side="right"))
        ref = reference_index(ts[:k], vs[:k], finalize=False)
        try:
            assert_equivalent(ref, reopened)
        except AssertionError:
            if k < MATRIX_N:
                raise
            # crashed inside finalize(), after the closing seal
            # committed but before the finalized flag did: what
            # persisted is the *finalized* segmentation
            ref_fin = reference_index(ts, vs, finalize=True)
            try:
                assert_equivalent(ref_fin, reopened)
            finally:
                ref_fin.close()
        finally:
            ref.close()
        # the durability contract: every observation whose append call
        # returned must survive the crash (its WAL write completed);
        # only the single in-flight chunk is allowed to be uncertain
        assert fed <= k <= fed + MATRIX_CHUNK, (
            f"fed {fed}, recovered {k} at {mode}@{fail_at}"
        )

        # the producer may still re-feed its stream; duplicates are
        # skipped and the final answer matches the full batch build
        reopened.append_array(ts, vs)
        reopened.finalize()
        ref = reference_index(ts, vs)
        assert_equivalent(ref, reopened)
        ref.close()
        reopened.close()


# ---------------------------------------------------------------------- #
# scrub: self-healing open
# ---------------------------------------------------------------------- #


class TestScrub:
    def _build(self, d, seed=31, n=500, seal_rows=120):
        ts, vs = make_walk(seed, n=n)
        live = LiveIndex(EPS, WINDOW, directory=d, seal_rows=seal_rows)
        for i in range(0, n, 50):
            live.append_array(ts[i : i + 50], vs[i : i + 50])
        live.seal()
        assert len(live.partitions) >= 2
        specs = live.partitions
        live.close()
        return ts, vs, specs

    def test_scrub_quarantines_truncated_partition(self, tmp_path):
        d = str(tmp_path / "live.d")
        ts, vs, specs = self._build(d)
        victim = specs[1].file
        with open(os.path.join(d, victim), "r+b") as fh:
            fh.truncate(97)  # a torn partition file

        flight.clear()
        reopened = LiveIndex.open(d, scrub=True)
        # rolled back to the intact prefix; the torn file (and the WAL,
        # whose frames continue from the discarded suffix) quarantined
        assert [s.partition_id for s in reopened.partitions] == [
            specs[0].partition_id
        ]
        qdir = os.path.join(d, "quarantine")
        assert victim in os.listdir(qdir)
        assert any(
            e.category == "scrub" for e in flight.tail()
        )
        # the producer re-feeds; the final answer is exact
        reopened.append_array(ts, vs)
        reopened.finalize()
        ref = reference_index(ts, vs)
        assert_equivalent(ref, reopened)
        ref.close()
        reopened.close()

    def test_scrub_detects_silent_bit_rot(self, tmp_path):
        d = str(tmp_path / "live.d")
        ts, vs, specs = self._build(d)
        victim = specs[0]
        path = os.path.join(d, victim.file)
        # flip one stored feature value without touching the container:
        # only the persisted checksum trees can notice this
        conn = sqlite3.connect(path)
        table = next(
            t for t in ("drop_points", "jump_points",
                        "drop_lines", "jump_lines")
            if conn.execute(
                f"SELECT COUNT(*) FROM {t}"
            ).fetchone()[0] > 0
        )
        conn.execute(f"UPDATE {table} SET dv = dv + 0.5 "
                     f"WHERE rowid = 1"
                     if table.endswith("points") else
                     f"UPDATE {table} SET dv1 = dv1 + 0.5 "
                     f"WHERE rowid = 1")
        conn.commit()
        conn.close()

        reopened = LiveIndex.open(d, scrub=True)
        # the first partition is damaged — everything rolls back
        assert reopened.partitions == []
        assert victim.file in os.listdir(os.path.join(d, "quarantine"))
        reopened.append_array(ts, vs)
        reopened.finalize()
        ref = reference_index(ts, vs)
        assert_equivalent(ref, reopened)
        ref.close()
        reopened.close()

    def test_scrub_quarantines_spliced_heap_page(self, tmp_path):
        """One valid heap page copied over a later page of the same
        table passes every page CRC (it does not cover the page id);
        fsck flags the broken key order and scrub quarantines."""
        from repro.storage.minidb import MiniDatabase
        from repro.storage.minidb.columnar import decode_heap_chain

        d = str(tmp_path / "live.d")
        ts, vs = make_walk(31, n=500)
        live = LiveIndex(
            EPS, WINDOW, directory=d, backend="minidb", seal_rows=10**9
        )
        live.append_array(ts, vs)
        live.seal()
        victim = live.partitions[0].file
        live.close()
        path = os.path.join(d, victim)
        db = MiniDatabase(path)
        chain = decode_heap_chain(db.table("drop_lines").heap)[1]
        db.close()
        assert len(chain) >= 4
        with open(path, "r+b") as fh:
            fh.seek(chain[1] * 4096)
            page = fh.read(4096)
            fh.seek(chain[3] * 4096)
            fh.write(page)

        db = MiniDatabase(path)
        problems = [str(p) for p in db.check()]
        db.close()
        assert not any("checksum" in p for p in problems), problems
        assert any(
            "'drop_lines'" in p and f"page {chain[3]} breaks the clustered "
            "key order" in p for p in problems
        ), problems
        reopened = LiveIndex.open(d, scrub=True)
        assert reopened.partitions == []
        assert victim in os.listdir(os.path.join(d, "quarantine"))
        reopened.close()

    def test_scrub_quarantines_orphans_not_deletes(self, tmp_path):
        d = str(tmp_path / "live.d")
        ts, vs, specs = self._build(d)
        orphan = os.path.join(d, "p009999.sqlite")
        with open(orphan, "wb") as fh:
            fh.write(b"partial seal leftovers")
        with open(os.path.join(d, MANIFEST_NAME + ".tmp"), "w") as fh:
            fh.write("{torn")

        reopened = LiveIndex.open(d, scrub=True)
        assert not os.path.exists(orphan)
        listed = os.listdir(os.path.join(d, "quarantine"))
        assert "p009999.sqlite" in listed
        assert MANIFEST_NAME + ".tmp" in listed
        # intact partitions untouched
        assert [s.partition_id for s in reopened.partitions] == [
            s.partition_id for s in specs
        ]
        reopened.close()

    def test_plain_open_still_sweeps_orphans(self, tmp_path):
        d = str(tmp_path / "live.d")
        self._build(d)
        orphan = os.path.join(d, "p009999.sqlite")
        with open(orphan, "wb") as fh:
            fh.write(b"leftovers")
        reopened = LiveIndex.open(d)  # no scrub: orphans are deleted
        assert not os.path.exists(orphan)
        reopened.close()


# ---------------------------------------------------------------------- #
# fsck over live directories
# ---------------------------------------------------------------------- #


class TestLiveFsck:
    def test_fsck_ok(self, tmp_path, capsys):
        from repro.cli import main

        d = str(tmp_path / "live.d")
        ts, vs = make_walk(37, n=400)
        live = LiveIndex(EPS, WINDOW, directory=d, seal_rows=150)
        live.append_array(ts, vs)
        live.seal()
        live.close()
        assert main(["fsck", d]) == 0
        out = capsys.readouterr().out
        assert "ok" in out
        assert WAL_NAME in out  # the WAL scan is reported as a note

    def test_fsck_reports_torn_partition(self, tmp_path, capsys):
        from repro.cli import main

        d = str(tmp_path / "live.d")
        ts, vs = make_walk(37, n=400)
        live = LiveIndex(EPS, WINDOW, directory=d, seal_rows=150)
        live.append_array(ts, vs)
        live.seal()
        victim = live.partitions[0].file
        live.close()
        with open(os.path.join(d, victim), "r+b") as fh:
            fh.truncate(97)
        assert main(["fsck", d]) == 1
        assert "problem" in capsys.readouterr().out


# ---------------------------------------------------------------------- #
# stateful crash machine
# ---------------------------------------------------------------------- #


class LiveCrashMachine(RuleBasedStateMachine):
    """Random ingest/seal/compact schedules with power cuts injected at
    arbitrary file operations, recovered via ``open(scrub=True)`` and
    checked against a batch build of the recovered prefix — the live
    twin of PR 1's ``CrashRecoveryMachine``.
    """

    N = 420

    def __init__(self):
        super().__init__()
        import tempfile

        self.tmp = tempfile.TemporaryDirectory()
        self.dir = os.path.join(self.tmp.name, "live.d")
        self.ts, self.vs = make_walk(43, n=self.N)
        self.cursor = 0
        self.injector = FaultInjector()
        self.live = LiveIndex(
            EPS, WINDOW, directory=self.dir,
            seal_rows=140, wal_sync_obs=48,
            _fs=self.injector,
        )

    def _recover(self):
        self.injector.close_all()
        try:
            self.live.close()
        except Exception:
            pass
        self.injector = FaultInjector()
        self.live = LiveIndex.open(
            self.dir, scrub=True,
            seal_rows=140, wal_sync_obs=48,
            _fs=self.injector,
        )
        horizon = recovery_horizon(self.live)
        k = assert_prefix_equivalent(
            self.ts, self.vs, horizon, self.live
        )
        # continue the stream from the recovered point — the feed must
        # never leave a hole
        self.cursor = k

    def _feed(self, n):
        lo, hi = self.cursor, min(self.cursor + n, self.N)
        if lo >= hi:
            return
        self.live.append_array(self.ts[lo:hi], self.vs[lo:hi])
        self.cursor = hi

    @rule(n=st.integers(min_value=10, max_value=80))
    def append_chunk(self, n):
        try:
            self._feed(n)
        except (FaultInjected, OSError):
            self._recover()

    @rule()
    def seal(self):
        try:
            self.live.seal()
        except (FaultInjected, OSError):
            self._recover()

    @rule()
    def compact(self):
        try:
            self.live.compact(max_rows=10**9)
        except (FaultInjected, OSError):
            self._recover()

    @rule(
        offset=st.integers(min_value=1, max_value=12),
        mode=st.sampled_from(["crash", "torn", "enospc"]),
        n=st.integers(min_value=10, max_value=80),
    )
    def crash_during(self, offset, mode, n):
        self.injector.arm(
            FaultPolicy(
                fail_at=self.injector.op_count + offset, mode=mode
            )
        )
        try:
            self._feed(n)
            self.live.seal()
        except (FaultInjected, OSError):
            self._recover()
        else:
            self.injector.arm(FaultPolicy())  # never fired

    @rule()
    def clean_reopen(self):
        self.live.close()
        self.injector.close_all()
        self.injector = FaultInjector()
        self.live = LiveIndex.open(
            self.dir, seal_rows=140, wal_sync_obs=48,
            _fs=self.injector,
        )
        # a clean close loses nothing at all
        horizon = recovery_horizon(self.live)
        k = assert_prefix_equivalent(
            self.ts, self.vs, horizon, self.live
        )
        assert k == self.cursor, (
            f"clean reopen lost {self.cursor - k} observations"
        )

    def teardown(self):
        try:
            self.live.close()
        except Exception:
            pass
        self.injector.close_all()
        self.tmp.cleanup()


TestLiveCrashMachine = pytest.mark.filterwarnings("ignore")(
    LiveCrashMachine.TestCase
)
TestLiveCrashMachine.settings = settings(
    max_examples=8, stateful_step_count=12, deadline=None
)

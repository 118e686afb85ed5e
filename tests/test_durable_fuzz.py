"""Byte-level fuzzing of the on-disk durability formats.

Each case starts from a valid file — a MiniDB page WAL holding committed
frames, a live ``hot.wal``, a ``partitions.json``, a shard
``manifest.json`` and a sealed (clustered, write-once) MiniDB partition
— mutates it (truncate at k, flip bit k, splice a range from elsewhere
in the file over position k, append garbage; for the partition also
copy one whole page over another, which every page CRC passes) and
hands it to the program's own openers and readers.  Each may succeed or
raise a :class:`~repro.errors.StorageError` subclass, nothing else, and
must return within a deadline.  A recovered log keeps a prefix of the
clean log's records, MiniDB replay never grows the main file past the
pages the main file and the clean log held, and a partition read never
returns a row the clean file does not hold.
"""

import os
import shutil
import tempfile
import threading
from datetime import timedelta
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.live import LiveIndex, partition_damage
from repro.errors import CorruptionError, StorageError
from repro.storage.durable import RECORD, read_records
from repro.storage.faults import FaultInjector
from repro.storage.livewal import WAL_NAME, LiveWAL
from repro.storage.minidb import PAGE_SIZE, MiniDatabase, MiniDbFeatureStore
from repro.storage.minidb.wal import WriteAheadLog
from repro.storage.partitions import MANIFEST_NAME, PartitionManifest

EPS = 0.8
WINDOW = 300.0

FUZZ = settings(
    max_examples=40,
    deadline=timedelta(seconds=10),
    suppress_health_check=[HealthCheck.too_slow],
)


def mutated(clean: bytes):
    """Strategy: ``clean`` truncated, bit-flipped, spliced or extended."""
    n = len(clean)
    k = st.integers(0, n - 1)

    def flip(args):
        pos, bit = args
        return clean[:pos] + bytes([clean[pos] ^ (1 << bit)]) + clean[pos + 1:]

    def splice(args):
        src, dst, length = args
        piece = clean[src : src + length][: n - dst]
        return clean[:dst] + piece + clean[dst + len(piece):]

    return st.one_of(
        k.map(lambda pos: clean[:pos]),
        st.tuples(k, st.integers(0, 7)).map(flip),
        st.tuples(k, k, st.integers(1, 2 * RECORD.size + 16)).map(splice),
        st.binary(min_size=1, max_size=64).map(lambda junk: clean + junk),
    )


def bounded(fn, timeout: float = 10.0):
    """``fn()`` in a thread: it must return within ``timeout`` and may
    raise only a :class:`StorageError`; returns its value or ``None``."""
    out = {}

    def run():
        try:
            out["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - asserted below
            out["error"] = exc

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout)
    assert not worker.is_alive(), "opener never returned"
    if "error" in out:
        assert isinstance(out["error"], StorageError), repr(out["error"])
        return None
    return out["value"]


def _read_dir(directory: str) -> dict:
    out = {}
    for fname in os.listdir(directory):
        with open(os.path.join(directory, fname), "rb") as fh:
            out[fname] = fh.read()
    return out


def _write_dir(directory: str, files: dict) -> None:
    os.makedirs(directory, exist_ok=True)
    for fname, data in files.items():
        with open(os.path.join(directory, fname), "wb") as fh:
            fh.write(data)


def _records(data: bytes, header: int):
    with tempfile.TemporaryFile() as fh:
        fh.write(data)
        return [r[1:] for r in read_records(fh, header)]


# ---------------------------------------------------------------------- #
# clean files, built once
# ---------------------------------------------------------------------- #


@lru_cache(maxsize=None)
def minidb_files() -> dict:
    """A MiniDB file whose WAL holds two committed, untransferred
    transactions (the process died before the checkpoint)."""
    d = tempfile.mkdtemp()
    try:
        path = os.path.join(d, "db.mdb")
        with MiniDatabase(path) as db:
            t = db.create_table("t", 4)
            for i in range(40):
                t.insert((float(i), 1.0, 2.0, 3.0))
        inj = FaultInjector()
        db = MiniDatabase(path, cache_pages=3, fs=inj)
        for lo in (40, 120):
            with db.transaction():
                t = db.table("t")
                for i in range(lo, lo + 80):
                    t.insert((float(i), 1.0, 2.0, 3.0))
                db.set_meta("rows", lo + 80)
        inj.close_all()  # a crash: nothing transferred, nothing closed
        return _read_dir(d)
    finally:
        shutil.rmtree(d)


@lru_cache(maxsize=None)
def live_files() -> dict:
    """A live directory: sealed SQLite partitions plus a ``hot.wal``
    tail holding observations and a gap."""
    d = tempfile.mkdtemp()
    try:
        rng = np.random.default_rng(5)
        ts = np.cumsum(rng.uniform(0.5, 3.0, 400))
        vs = np.cumsum(rng.normal(0.0, 1.0, 400))
        live = LiveIndex(EPS, WINDOW, directory=d, seal_rows=300)
        for lo in range(0, 400, 40):
            live.append_array(ts[lo : lo + 40], vs[lo : lo + 40])
            if lo == 320:
                live.mark_gap()
        live.close()
        return _read_dir(d)
    finally:
        shutil.rmtree(d)


@lru_cache(maxsize=None)
def shard_files() -> dict:
    from repro.datagen.series import TimeSeries
    from repro.engine import ShardedIndex

    d = tempfile.mkdtemp()
    try:
        ts = np.concatenate([np.arange(50.0), 5000.0 + np.arange(50.0)])
        vs = np.cumsum(np.random.default_rng(3).normal(0.0, 1.0, 100))
        with ShardedIndex.build(
            TimeSeries(times=ts, values=vs), EPS, WINDOW, n_shards=2,
            max_gap=100.0, backend="sqlite", directory=d,
        ) as sharded:
            sharded.save_manifest(d)
        return _read_dir(d)
    finally:
        shutil.rmtree(d)


def _with_mutation(files: dict, fname: str, data: bytes, body) -> None:
    d = tempfile.mkdtemp()
    try:
        _write_dir(d, {**files, fname: data})
        body(d)
    finally:
        shutil.rmtree(d)


# ---------------------------------------------------------------------- #
# the MiniDB page WAL
# ---------------------------------------------------------------------- #


def _minidb_limits():
    files = minidb_files()
    wal = files["db.mdb.wal"]
    frames = sum(1 for kind, _a, _p in _records(wal, 12) if kind == 1)
    return len(files["db.mdb"]) // PAGE_SIZE, frames


class TestMiniDbWal:
    def test_clean_log_replays_both_transactions(self):
        def body(d):
            with MiniDatabase(os.path.join(d, "db.mdb")) as db:
                assert db.check() == []
                assert db.table("t").n_rows == 200

        clean = minidb_files()
        _with_mutation(clean, "db.mdb.wal", clean["db.mdb.wal"], body)

    @FUZZ
    @given(data=mutated(minidb_files()["db.mdb.wal"]))
    def test_open_recovers_a_committed_prefix(self, data):
        pages, frames = _minidb_limits()

        def body(d):
            path = os.path.join(d, "db.mdb")

            def reopen():
                with MiniDatabase(path) as db:
                    assert db.check() == []
                    # only whole transactions: 40, 120 or 200 rows
                    return db.table("t").n_rows

            rows = bounded(reopen)
            assert rows in (None, 40, 120, 200)
            assert os.path.getsize(path) <= (pages + frames) * PAGE_SIZE

        _with_mutation(minidb_files(), "db.mdb.wal", data, body)

    @FUZZ
    @given(data=mutated(minidb_files()["db.mdb.wal"]))
    def test_recovered_log_is_a_prefix(self, data):
        clean = minidb_files()["db.mdb.wal"]

        def body(d):
            path = os.path.join(d, "db.mdb.wal")
            wal = bounded(lambda: WriteAheadLog(path, PAGE_SIZE))
            if wal is None:
                return
            wal.close()
            with open(path, "rb") as fh:
                kept = fh.read()
            assert kept == clean[: len(kept)]

        _with_mutation(minidb_files(), "db.mdb.wal", data, body)


# ---------------------------------------------------------------------- #
# the live hot.wal
# ---------------------------------------------------------------------- #


def _frame_key(frame):
    if frame[0] == "obs":
        return ("obs", frame[1].tobytes(), frame[2].tobytes())
    return ("gap", np.float64(frame[1]).tobytes())


class TestLiveWal:
    @FUZZ
    @given(data=mutated(live_files()[WAL_NAME]))
    def test_recovered_frames_are_a_prefix(self, data):
        clean_dir = live_files()

        def body(d):
            path = os.path.join(d, WAL_NAME)
            scan = bounded(lambda: LiveWAL.scan(path))
            wal = bounded(lambda: LiveWAL(path))
            if wal is None:
                assert scan is None
                return
            got = [_frame_key(f) for f in wal.replay_frames()]
            wal.close()
            if scan is not None and scan["header_ok"]:
                assert scan["frames"] == len(got)

            def clean_frames():
                with tempfile.TemporaryDirectory() as c:
                    _write_dir(c, {WAL_NAME: clean_dir[WAL_NAME]})
                    w = LiveWAL(os.path.join(c, WAL_NAME))
                    try:
                        return [_frame_key(f) for f in w.replay_frames()]
                    finally:
                        w.close()

            assert got == clean_frames()[: len(got)]

        _with_mutation({}, WAL_NAME, data, body)

    @FUZZ
    @given(data=mutated(live_files()[WAL_NAME]))
    def test_live_index_open(self, data):
        def body(d):
            bounded(lambda: LiveIndex.open(d).close())

        _with_mutation(live_files(), WAL_NAME, data, body)


# ---------------------------------------------------------------------- #
# a sealed MiniDB partition (main-file pages)
# ---------------------------------------------------------------------- #

_TABLES = ("drop_points", "drop_lines", "jump_points", "jump_lines")
_THRESHOLDS = (0.0, 30.0, 120.0, 1e9)


@lru_cache(maxsize=None)
def sealed_partition():
    """``(file name, bytes, spec)`` of one sealed MiniDB partition."""
    d = tempfile.mkdtemp()
    try:
        rng = np.random.default_rng(9)
        ts = np.cumsum(rng.uniform(0.5, 3.0, 200))
        vs = np.cumsum(rng.normal(0.0, 1.0, 200))
        live = LiveIndex(EPS, WINDOW, directory=d, backend="minidb",
                         seal_rows=10**9)
        live.append_array(ts, vs)
        live.seal()
        (spec,) = live.partitions
        live.close()
        with open(os.path.join(d, spec.file), "rb") as fh:
            return spec.file, fh.read(), spec
    finally:
        shutil.rmtree(d)


@lru_cache(maxsize=None)
def clean_rows() -> dict:
    """Every row the clean partition holds, per table width."""
    fname, data, _spec = sealed_partition()
    out = {6: set(), 8: set()}
    with tempfile.TemporaryDirectory() as d:
        _write_dir(d, {fname: data})
        store = MiniDbFeatureStore(os.path.join(d, fname))
        for table in _TABLES:
            rows = store.read_table_rows(table)
            out[rows.shape[1]].update(map(tuple, rows.tolist()))
        store.close()
    return out


def page_spliced(clean: bytes):
    """Strategy: one whole page of ``clean`` copied over another."""
    pages = len(clean) // PAGE_SIZE
    k = st.integers(0, pages - 1)

    def splice(args):
        src, dst = (i * PAGE_SIZE for i in args)
        return (clean[:dst] + clean[src : src + PAGE_SIZE]
                + clean[dst + PAGE_SIZE:])

    return st.tuples(k, k).map(splice)


def _read_partition(path: str) -> None:
    """Open, scan, probe (warm and cold) and fsck one partition file;
    every row it yields must be one the clean file holds."""
    store = bounded(lambda: MiniDbFeatureStore(path))
    if store is None:
        return
    known = clean_rows()
    try:
        blocks = [bounded(lambda t=t: store.read_table_rows(t))
                  for t in _TABLES]
        bounded(store.load_segments)
        for kind in ("drop", "jump"):
            for t in _THRESHOLDS:
                for cache in ("warm", "cold"):
                    blocks.append(bounded(
                        lambda: store.probe_point_index_array(
                            kind, t, cache=cache)))
                    blocks.append(bounded(
                        lambda: store.probe_line_index_array(
                            kind, t, cache=cache)))
        bounded(store.check)
    finally:
        bounded(store.close)
    for block in blocks:
        if block is not None:
            for row in block.tolist():
                assert tuple(row) in known[len(row)], row


class TestSealedPartition:
    @FUZZ
    @given(data=st.one_of(mutated(sealed_partition()[1]),
                          page_spliced(sealed_partition()[1])))
    def test_reads_and_scrub_stay_typed(self, data):
        fname, clean, spec = sealed_partition()

        def body(d):
            path = os.path.join(d, fname)
            _read_partition(path)
            with open(path, "wb") as fh:  # the readers may have written
                fh.write(data)
            why = bounded(lambda: partition_damage(d, spec))
            if why is None and data != clean:
                # scrub passes it: then it reads back as the clean rows
                store = MiniDbFeatureStore(path)
                try:
                    for table in _TABLES:
                        rows = store.read_table_rows(table)
                        assert set(map(tuple, rows.tolist())) <= \
                            clean_rows()[rows.shape[1]]
                finally:
                    store.close()

        _with_mutation({}, fname, data, body)

    def test_clean_partition_is_intact(self):
        fname, clean, spec = sealed_partition()

        def body(d):
            assert partition_damage(d, spec) is None
            _read_partition(os.path.join(d, fname))

        _with_mutation({}, fname, clean, body)


# ---------------------------------------------------------------------- #
# manifests
# ---------------------------------------------------------------------- #


class TestManifests:
    @FUZZ
    @given(data=mutated(live_files()[MANIFEST_NAME]))
    def test_partition_manifest(self, data):
        def body(d):
            bounded(lambda: PartitionManifest.load(d))
            bounded(lambda: LiveIndex.open(d).close())

        _with_mutation(live_files(), MANIFEST_NAME, data, body)

    @FUZZ
    @given(data=mutated(shard_files()["manifest.json"]))
    def test_shard_manifest(self, data):
        from repro.engine import ShardedIndex

        def body(d):
            bounded(lambda: ShardedIndex.open(d).close())

        _with_mutation(shard_files(), "manifest.json", data, body)

    def test_cases_fuzzing_found(self):
        """A name that leaves the directory, a missing partition file and
        a window out of range are typed errors that touch no file."""
        from repro.engine import ShardedIndex

        shard = shard_files()
        _with_mutation(
            shard, "manifest.json",
            shard["manifest.json"].replace(b"t0-r0", b"t0/r0"),
            lambda d: pytest.raises(CorruptionError, ShardedIndex.open, d),
        )
        live = live_files()
        for old, new in ((b'"p000000.sqlite"', b'"../p000000.sqlite"'),
                         (b'"p000000.sqlite"', b'"p000000.sqlitf"'),
                         (b'"window": 300.0', b'"window": -300.0')):
            def body(d):
                before = sorted(os.listdir(d))
                with pytest.raises(CorruptionError):
                    LiveIndex.open(d)
                assert sorted(os.listdir(d)) == before

            _with_mutation(live, MANIFEST_NAME,
                           live[MANIFEST_NAME].replace(old, new), body)


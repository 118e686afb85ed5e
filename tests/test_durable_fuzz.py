"""Byte-level fuzzing of the on-disk durability formats.

Each case starts from a valid file — a MiniDB page WAL holding committed
frames, a live ``hot.wal``, a ``partitions.json``, a shard
``manifest.json`` and a sealed (clustered, write-once) MiniDB partition
— mutates it (truncate at k, flip bit k, splice a range from elsewhere
in the file over position k, append garbage; for the partition also
copy one whole page over another, which every page CRC passes) and
hands it to the program's own openers and readers.  A batch MiniDB
index also gets its B+tree node headers, a heap page's next link and a
leaf's rids rewritten with a valid CRC.  Each may succeed or
raise a :class:`~repro.errors.StorageError` subclass, nothing else, and
must return within a deadline.  A recovered log keeps a prefix of the
clean log's records, MiniDB replay never grows the main file past the
pages the main file and the clean log held, and a partition read never
returns a row the clean file does not hold.
"""

import os
import shutil
import sqlite3
import tempfile
import threading
import tracemalloc
from contextlib import closing
from datetime import timedelta
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.live import LiveIndex, partition_damage
from repro.errors import CorruptionError, StorageError
from repro.storage.checksum import load_trees
from repro.storage.durable import RECORD, read_records
from repro.storage.faults import FaultInjector
from repro.storage.livewal import WAL_NAME, LiveWAL
from repro.storage.minidb import PAGE_SIZE, MiniDatabase, MiniDbFeatureStore
from repro.storage.minidb.wal import WriteAheadLog
from repro.storage.partitions import MANIFEST_NAME, PartitionManifest
from repro.storage.sqlite_store import SqliteFeatureStore

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


def _with_mutation(files: dict, fname: str, data: bytes, body):
    d = tempfile.mkdtemp()
    try:
        _write_dir(d, {**files, fname: data})
        return body(d)
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
# B+tree leaves of a batch (unclustered) MiniDB index
# ---------------------------------------------------------------------- #


@lru_cache(maxsize=None)
def batch_index():
    """``(files, pages)`` of a batch-built MiniDB index whose B+tree has
    several leaves; ``pages`` names its root, its leftmost leaf and the
    first page of the ``drop_points`` heap chain."""
    from repro.core.index import SegDiffIndex
    from repro.datagen.series import TimeSeries

    d = tempfile.mkdtemp()
    try:
        rng = np.random.default_rng(11)
        ts = np.cumsum(rng.uniform(0.5, 3.0, 600))
        vs = np.cumsum(rng.normal(0.0, 1.0, 600))
        path = os.path.join(d, "index.mdb")
        SegDiffIndex.build(TimeSeries(times=ts, values=vs), EPS, WINDOW,
                           backend="minidb", path=path).close()
        store = MiniDbFeatureStore(path)
        try:
            table = store.db.table("drop_points")
            tree = table.index("by_key")
            assert tree.height() > 1 and table.heap_pages() > 1
            pages = {"root": tree.root, "leaf": tree._leftmost_leaf(),
                     "heap": table.heap.first_page}
        finally:
            store.close()
        return _read_dir(d), pages
    finally:
        shutil.rmtree(d)


class TestCorruptNodeHeader:
    """A B+tree node header rewritten and re-stamped passes the page
    CRC; the index probe must still raise a typed error, and promptly: a
    count past the fanout or below zero used to leak ``ValueError`` /
    ``struct.error``, a leaf linking to itself walked forever, and a
    link past the file leaked ``InvalidParameterError``."""

    @pytest.mark.parametrize("target, n, link", [
        ("leaf", 100_000, None),  # count past the fanout
        ("leaf", -5, None),  # negative count
        ("leaf", None, "self"),  # next_leaf points at the leaf itself
        ("root", 100_000, None),  # internal node: keys past the fanout
        ("leaf", None, 10**7),  # next_leaf points past the file
        ("root", None, 10**7),  # child0 points past the file
    ], ids=["big-n", "negative-n", "self-loop", "root-big-n",
            "past-file", "root-past-file"])
    def test_index_probe_raises_storage_error(self, target, n, link):
        from repro.core.index import SegDiffIndex
        from repro.storage.minidb.btree import _LEAF_HEADER
        from repro.storage.minidb.pager import stamp

        files, pages = batch_index()
        at = pages[target]
        data = bytearray(files["index.mdb"])
        page = bytearray(data[at * PAGE_SIZE:(at + 1) * PAGE_SIZE])
        # a leaf and an internal node share the header layout:
        # kind, count, next_leaf / child0
        kind, count, old_link = _LEAF_HEADER.unpack_from(page, 0)
        assert kind == (target == "leaf") and count > 0
        if link is None:
            link = old_link
        elif link == "self":
            link = at
        _LEAF_HEADER.pack_into(page, 0, kind,
                               count if n is None else n, link)
        data[at * PAGE_SIZE:(at + 1) * PAGE_SIZE] = stamp(page)

        def body(d):
            out = {}

            def search():
                try:
                    with SegDiffIndex.open(os.path.join(d, "index.mdb")) \
                            as index:
                        # T = w: every entry of the leftmost leaf matches,
                        # so the walk must follow its next_leaf link
                        index.search_drops(WINDOW, -1e-9, mode="index")
                except BaseException as exc:  # noqa: BLE001 - asserted
                    out["error"] = exc

            worker = threading.Thread(target=search, daemon=True)
            worker.start()
            worker.join(10.0)
            assert not worker.is_alive(), "the index probe never returned"
            assert isinstance(out.get("error"), StorageError), out

        _with_mutation(files, "index.mdb", bytes(data), body)


class TestCorruptHeapChain:
    """The first ``drop_points`` heap page linked to itself and re-stamped
    passes the page CRC.  Every reader of the chain must still raise a
    typed error, and promptly: the row-at-a-time walks behind the
    planner sample, the top-k bound and ``feature_bytes`` used to follow
    the link forever."""

    READS = {
        "sample_points": lambda index: index.store.sample_points("drop", 512),
        "extreme_feature_dv":
            lambda index: index.store.extreme_feature_dv("drop"),
        "feature_bytes": lambda index: index.store.feature_bytes(),
        "table_scan": lambda index: list(
            index.store.db.table("drop_points").scan()),
        "search_auto": lambda index: index.search_drops(
            WINDOW, -1e-9, mode="auto"),
    }

    @pytest.mark.parametrize("read", sorted(READS))
    def test_chain_read_raises_storage_error(self, read):
        from repro.core.index import SegDiffIndex
        from repro.storage.minidb.heapfile import _HEADER
        from repro.storage.minidb.pager import stamp

        files, pages = batch_index()
        at = pages["heap"]
        data = bytearray(files["index.mdb"])
        page = bytearray(data[at * PAGE_SIZE:(at + 1) * PAGE_SIZE])
        count, link = _HEADER.unpack_from(page, 0)
        assert count > 0 and link not in (-1, at)
        _HEADER.pack_into(page, 0, count, at)
        data[at * PAGE_SIZE:(at + 1) * PAGE_SIZE] = stamp(page)

        def body(d):
            out = {}

            def run():
                try:
                    with SegDiffIndex.open(os.path.join(d, "index.mdb")) \
                            as index:
                        self.READS[read](index)
                except BaseException as exc:  # noqa: BLE001 - asserted
                    out["error"] = exc

            worker = threading.Thread(target=run, daemon=True)
            worker.start()
            worker.join(10.0)
            assert not worker.is_alive(), f"{read} never returned"
            assert isinstance(out.get("error"), StorageError), out

        _with_mutation(files, "index.mdb", bytes(data), body)


class TestCorruptRid:
    """Every entry of the leftmost ``drop_points`` leaf rewritten to a
    rid outside the heap and re-stamped passes the page CRC.  The index
    probe gathers the rows those rids name and must raise
    :class:`CorruptionError`: a page past the file used to leak
    ``InvalidParameterError`` from the pager, and a negative slot
    silently returned a row counted from the end of its page."""

    #: a ``drop_points`` leaf entry: the (Δt, Δv) key and the rid
    ENTRY = np.dtype([("key", "<f8", (2,)), ("page", "<i4"), ("slot", "<i4")])

    @pytest.mark.parametrize("field, value", [
        ("page", 10**7),  # rid page past the file
        ("slot", -1),  # negative slot
        ("slot", 10**6),  # slot past the page's rows
    ], ids=["page-past-file", "negative-slot", "slot-past-page"])
    def test_index_probe_raises_corruption_error(self, field, value):
        from repro.core.index import SegDiffIndex
        from repro.storage.minidb.btree import _LEAF_HEADER
        from repro.storage.minidb.pager import stamp

        files, pages = batch_index()
        at = pages["leaf"]
        data = bytearray(files["index.mdb"])
        page = bytearray(data[at * PAGE_SIZE:(at + 1) * PAGE_SIZE])
        kind, count, _next = _LEAF_HEADER.unpack_from(page, 0)
        assert kind == 1 and count > 0
        entries = np.frombuffer(page, dtype=self.ENTRY, count=count,
                                offset=_LEAF_HEADER.size).copy()
        # T = w and V just below 0 select every drop entry of the leaf
        assert (entries["key"][:, 1] <= -1e-9).any()
        entries[field] = value
        page[_LEAF_HEADER.size:_LEAF_HEADER.size + entries.nbytes] = \
            entries.tobytes()
        data[at * PAGE_SIZE:(at + 1) * PAGE_SIZE] = stamp(page)

        def body(d):
            with SegDiffIndex.open(os.path.join(d, "index.mdb")) as index:
                with pytest.raises(CorruptionError, match="rid"):
                    index.search_drops(WINDOW, -1e-9, mode="index")

        _with_mutation(files, "index.mdb", bytes(data), body)


# ---------------------------------------------------------------------- #
# checksum-tree meta items (``cks/<table>/...``)
# ---------------------------------------------------------------------- #

#: The live partition and the shard file whose trees the fuzz rewrites.
_LIVE_PART, _SHARD_FILE = "p000001.sqlite", "t0-r0.sqlite"
#: SQLite stores a NaN as NULL, which the meta table refuses.
_HOSTILE = (float("inf"), float("-inf"), -1.0, 0.0, 0.5, 2.0**32,
            2.0**53, 2.0**53 + 2.0, 1e18)


@lru_cache(maxsize=None)
def sealed_live_files() -> dict:
    """A live directory of three sealed SQLite partitions."""
    d = tempfile.mkdtemp()
    try:
        rng = np.random.default_rng(7)
        ts = np.cumsum(rng.uniform(0.5, 3.0, 150))
        vs = np.cumsum(rng.normal(0.0, 1.0, 150))
        live = LiveIndex(EPS, WINDOW, directory=d, seal_rows=10**9)
        for lo in range(0, 150, 50):
            live.append_array(ts[lo : lo + 50], vs[lo : lo + 50])
            live.seal()
        live.close()
        return _read_dir(d)
    finally:
        shutil.rmtree(d)


def _meta(data: bytes) -> dict:
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "f.sqlite")
        with open(path, "wb") as fh:
            fh.write(data)
        with closing(sqlite3.connect(path)) as conn:
            return dict(conn.execute("SELECT key, value FROM segdiff_meta"))


def meta_edits(data: bytes):
    """Strategy: one to three edits of a file's ``cks/`` meta items —
    a value rewritten (hostile, or the clean one off by one or doubled),
    a key deleted, or a stray key added beside a real one."""
    clean = _meta(data)
    keys = st.sampled_from(sorted(k for k in clean if k.startswith("cks/")))
    value = st.one_of(
        st.sampled_from(_HOSTILE),
        st.integers(-2**40, 2**40).map(float),
        st.floats(allow_nan=False, allow_infinity=True),
    )
    edit = st.one_of(
        st.tuples(keys, value),
        keys.flatmap(lambda k: st.tuples(st.just(k), st.sampled_from(
            [clean[k] + 1.0, clean[k] - 1.0, 2.0 * clean[k]]))),
        st.tuples(keys, st.none()),
        st.tuples(keys.map(lambda k: k.rsplit("/", 1)[0] + "/99999"), value),
    )
    return st.lists(edit, min_size=1, max_size=3)


def _apply(path: str, edits) -> None:
    with closing(sqlite3.connect(path)) as conn, conn:
        for key, value in edits:
            if value is None:
                conn.execute("DELETE FROM segdiff_meta WHERE key = ?", (key,))
            else:
                conn.execute("INSERT OR REPLACE INTO segdiff_meta "
                             "VALUES (?, ?)", (key, value))


def _trees(path: str):
    """The persisted trees of ``path`` (``load_trees``), or the
    :class:`StorageError` that reading them raised."""
    store = SqliteFeatureStore(path)
    try:
        return load_trees(store)
    except StorageError as exc:
        return exc
    finally:
        store.close()


def _allocates_at_most(limit: int, fn):
    """``bounded(fn)``, asserting the traced peak allocation <= ``limit``."""
    tracemalloc.start()
    try:
        value = bounded(fn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit, f"{peak} bytes allocated, limit {limit}"
    return value


def _all_drops(index, mode: str = "scan") -> set:
    return set(index.search_drops(WINDOW, -1e-9, mode=mode))


def _scrubbed_drops(d: str, mode: str = "scan") -> set:
    live = LiveIndex.open(d, scrub=True)
    try:
        return _all_drops(live, mode)
    finally:
        live.close()


def _verified_drops(d: str):
    from repro.engine import ShardedIndex

    with ShardedIndex.open(d) as sharded:
        report = sharded.verify()
        return report, set(sharded.search_outcome(
            "drop", WINDOW, -1e-9, mode="scan").pairs)


@lru_cache(maxsize=None)
def clean_answers() -> dict:
    """What the clean live directory and shard set answer."""
    live, shard = sealed_live_files(), shard_files()
    return {
        "live": _with_mutation(live, _LIVE_PART, live[_LIVE_PART],
                               _scrubbed_drops),
        "shard": _with_mutation(shard, _SHARD_FILE, shard[_SHARD_FILE],
                                _verified_drops)[1],
    }


class TestChecksumTreeMeta:
    """The persisted checksum trees are float meta items, read back by
    ``load_trees`` for scrub, ``segdiff fsck`` and shard ``verify``.
    Rewritten, deleted or stray items must give a typed error or a
    mismatch report — never a loop bounded by a corrupt count, an
    allocation sized by one, a crash, or a row the clean file lacks —
    and verification passes exactly the trees that read back clean."""

    #: Traced bytes a step may allocate per byte of the directory: a
    #: clean scrub-and-read peaks at 0.9x (live) and 1x (shards).
    PER_BYTE = 4

    @settings(FUZZ, max_examples=25)
    @given(edits=meta_edits(sealed_live_files()[_LIVE_PART]))
    def test_live_scrub_and_fsck(self, edits):
        from repro.cli import main

        files = sealed_live_files()
        limit = self.PER_BYTE * sum(map(len, files.values()))

        def body(d):
            spec = next(s for s in PartitionManifest.load(d).partitions
                        if s.file == _LIVE_PART)
            path = os.path.join(d, _LIVE_PART)
            clean = _trees(path)
            _apply(path, edits)
            trees = _allocates_at_most(limit, lambda: _trees(path))
            passes = trees == clean
            why = _allocates_at_most(
                limit, lambda: partition_damage(d, spec))
            assert (why is None) == passes, (why, edits)
            rc = _allocates_at_most(limit, lambda: main(["fsck", d]))
            assert rc == (0 if passes else 1)
            drops = _allocates_at_most(
                limit, lambda: _scrubbed_drops(d))
            assert drops is not None and drops <= clean_answers()["live"]

        _with_mutation(files, _LIVE_PART, files[_LIVE_PART], body)

    @settings(FUZZ, max_examples=25)
    @given(edits=meta_edits(shard_files()[_SHARD_FILE]))
    def test_shard_verify(self, edits):
        files = shard_files()
        limit = self.PER_BYTE * sum(map(len, files.values()))

        def body(d):
            path = os.path.join(d, _SHARD_FILE)
            clean = _trees(path)
            _apply(path, edits)
            trees = _allocates_at_most(limit, lambda: _trees(path))
            out = _allocates_at_most(limit, lambda: _verified_drops(d))
            if out is not None:
                report, drops = out
                assert (not report.divergences) == (trees == clean)
                assert drops <= clean_answers()["shard"]
            else:
                assert trees != clean

        _with_mutation(files, _SHARD_FILE, files[_SHARD_FILE], body)


# ---------------------------------------------------------------------- #
# a sealed SQLite live partition, byte by byte
# ---------------------------------------------------------------------- #

#: The smallest of the three sealed SQLite partitions (53 pages).
_SQLITE_PART = "p000000.sqlite"


@lru_cache(maxsize=None)
def clean_sqlite_rows() -> dict:
    """Every row each table of the clean partition holds."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, _SQLITE_PART)
        _write_dir(d, {_SQLITE_PART: sealed_live_files()[_SQLITE_PART]})
        store = SqliteFeatureStore(path)
        try:
            return {t: set(map(tuple, store.read_table_rows(t).tolist()))
                    for t in _TABLES}
        finally:
            store.close()


def _read_sqlite_partition(path: str) -> None:
    """Open the partition's store and read it every way the query path
    does: counts, planner samples, scans and index probes (warm and
    cold), whole tables and the segment log.  Each read may raise a
    :class:`StorageError`.  Runs on one thread: the connection that
    opens a SQLite store is the one its owner closes."""
    try:
        store = SqliteFeatureStore(path)
    except StorageError:
        return

    def read(fn, *args, **kw):
        try:
            fn(*args, **kw)
        except StorageError:
            pass

    try:
        read(store.counts)
        read(store.load_segments)
        for table in _TABLES:
            read(store.read_table_rows, table)
        for kind in ("drop", "jump"):
            read(store.sample_points, kind, 64)
            read(store.extreme_feature_dv, kind)
            for t in _THRESHOLDS:
                for cache in ("warm", "cold"):
                    for fetch in (store.scan_points_array,
                                  store.probe_point_index_array,
                                  store.scan_lines_array,
                                  store.probe_line_index_array):
                        read(fetch, kind, t, cache=cache)
    finally:
        store.close()


class TestSealedSqlitePartition:
    """A sealed SQLite live partition, truncated, bit-flipped, spliced
    or extended, or with one whole page copied over another.  SQLite
    keeps no page checksums, so an unverified read may return a flipped
    value: reads, ``segdiff fsck`` and scrub must raise only
    :class:`StorageError` subclasses and allocate O(file size), and the
    verified answer — the directory opened with ``scrub=True``, in scan
    and index mode — holds no pair the clean directory lacks.  A file
    the scrub passes holds only rows the clean file holds."""

    #: Traced bytes a step may allocate per byte of the directory.
    PER_BYTE = 4

    @settings(FUZZ, max_examples=30)
    @given(data=st.one_of(mutated(sealed_live_files()[_SQLITE_PART]),
                          page_spliced(sealed_live_files()[_SQLITE_PART])))
    def test_reads_fsck_and_scrub_stay_typed(self, data):
        from repro.cli import main

        files = sealed_live_files()
        limit = self.PER_BYTE * sum(map(len, files.values()))
        clean = clean_answers()["live"]

        def body(d):
            spec = next(s for s in PartitionManifest.load(d).partitions
                        if s.file == _SQLITE_PART)
            path = os.path.join(d, _SQLITE_PART)
            _allocates_at_most(limit, lambda: _read_sqlite_partition(path))
            with open(path, "wb") as fh:  # the readers may have written
                fh.write(data)
            why = _allocates_at_most(
                limit, lambda: partition_damage(d, spec))
            rc = _allocates_at_most(limit, lambda: main(["fsck", d]))
            assert rc == (0 if why is None else 1), why
            rc = _allocates_at_most(limit, lambda: main(["fsck", path]))
            assert rc in (0, 1) and (rc == 0 or why is not None)
            if why is None:
                store = SqliteFeatureStore(path)
                try:
                    for table in _TABLES:
                        rows = store.read_table_rows(table)
                        assert set(map(tuple, rows.tolist())) <= \
                            clean_sqlite_rows()[table]
                finally:
                    store.close()
            for mode in ("scan", "index"):
                with open(path, "wb") as fh:  # a scrub quarantines it
                    fh.write(data)
                drops = _allocates_at_most(
                    limit, lambda: _scrubbed_drops(d, mode))
                assert drops is not None and drops <= clean

        _with_mutation(files, _SQLITE_PART, data, body)

    def test_index_damage_fails_the_scrub(self):
        """The checksum trees cover the tables, not their B-tree
        indexes: a wrecked index page is the integrity check's to find,
        so a scrubbed index-mode query never meets it."""
        files = sealed_live_files()
        clean = files[_SQLITE_PART]
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, _SQLITE_PART)
            _write_dir(d, {_SQLITE_PART: clean})
            with closing(sqlite3.connect(path)) as conn:
                (root,), = conn.execute(
                    "SELECT rootpage FROM sqlite_master "
                    "WHERE name = 'idx_drop_points'")
        at = (root - 1) * 4096  # SQLite numbers its 4 KiB pages from 1
        data = clean[:at] + clean[:4096] + clean[at + 4096:]

        def body(d):
            spec = next(s for s in PartitionManifest.load(d).partitions
                        if s.file == _SQLITE_PART)
            why = partition_damage(d, spec)
            assert why is not None and why.startswith("fsck:"), why
            assert _scrubbed_drops(d, "index") <= clean_answers()["live"]

        _with_mutation(files, _SQLITE_PART, data, body)

    def test_clean_partition_is_intact(self):
        files = sealed_live_files()

        def body(d):
            spec = next(s for s in PartitionManifest.load(d).partitions
                        if s.file == _SQLITE_PART)
            assert partition_damage(d, spec) is None
            bounded(lambda: _read_sqlite_partition(
                os.path.join(d, _SQLITE_PART)))
            assert _scrubbed_drops(d, "index") == clean_answers()["live"]

        _with_mutation(files, _SQLITE_PART, files[_SQLITE_PART], body)


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


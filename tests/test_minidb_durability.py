"""Crash-safety tests for MiniDB: checksums, WAL recovery, and fsck.

The centerpiece is a **crash matrix**: a fixed multi-transaction workload
is first run fault-free to count every file-level write operation, then
re-run once per operation with a simulated power cut at exactly that op.
After every crash the database must reopen cleanly, pass fsck, and
contain exactly a committed prefix of the workload's transactions — never
a partial transaction, never corrupt data.
"""

import os
import struct
import threading
from functools import partial

import pytest

from repro.errors import CorruptionError, RecoveryError, StorageError
from repro.storage.durable import encode_record
from repro.storage.faults import FaultInjected, FaultInjector, FaultPolicy
from repro.storage.minidb import (
    PAGE_CAPACITY,
    PAGE_SIZE,
    MiniDatabase,
    MiniDbFeatureStore,
    Pager,
)

from .crashmatrix import count_ops, crash_at, fault_points

# ---------------------------------------------------------------------- #
# the workload under test: one DDL transaction (create table, bulk
# insert, build an index) followed by several batches of indexed inserts.
# cache_pages=3 forces mid-transaction evictions through the WAL; the
# batches are sized so B+tree leaf splits happen during insert_indexed.
# ---------------------------------------------------------------------- #

WIDTH = 16
BATCH = 50
N_TXNS = 8


def row(i: int):
    return tuple(float(i * 10 + c) for c in range(WIDTH))


def workload(path: str, fs=None) -> None:
    db = MiniDatabase(path, cache_pages=3, fs=fs)
    with db.transaction():
        t = db.create_table("events", WIDTH)
        for i in range(BATCH):
            t.insert(row(i))
        t.create_index("by_key", (0, 1))
    n = BATCH
    for _ in range(1, N_TXNS):
        with db.transaction():
            t = db.table("events")
            for i in range(n, n + BATCH):
                t.insert_indexed(row(i))
            db.set_meta("count", n + BATCH)
        n += BATCH
    db.close()


def assert_recovered_state_valid(path: str, crash_point) -> None:
    """Reopen after a crash; the state must be a committed prefix."""
    db = MiniDatabase(path)
    try:
        problems = db.check()
        assert problems == [], (
            f"fsck after crash at op {crash_point}: {problems}"
        )
        if db.has_table("events"):
            t = db.table("events")
            n = t.n_rows
            # atomicity: only whole transactions are ever visible
            assert n % BATCH == 0 and 0 < n <= N_TXNS * BATCH, (
                f"crash at op {crash_point} exposed a partial "
                f"transaction ({n} rows)"
            )
            rows = [r for _rid, r in t.scan()]
            assert rows == [row(i) for i in range(n)]
            entries = list(t.index("by_key").scan_from())
            assert len(entries) == n
            assert [k for k, _rid in entries] == sorted(
                (r[0], r[1]) for r in rows
            )
            count = db.get_meta("count")
            if n > BATCH:  # set_meta commits with each later batch
                assert count == n
    finally:
        db.close()


class TestCrashMatrix:
    def test_every_crash_point_recovers(self, tmp_path):
        """Simulate a power cut at EVERY write op of the workload."""
        n_ops = count_ops(partial(workload, str(tmp_path / "count.mdb")))
        # one write per WAL record, same fsync points: the record format
        # must not change how many crash points the workload has
        assert n_ops == 87, n_ops
        for k in range(1, n_ops + 1):
            path = str(tmp_path / f"crash_{k}.mdb")
            fault = crash_at(partial(workload, path), k)
            assert isinstance(fault, FaultInjected), k
            assert_recovered_state_valid(path, k)

    def test_torn_write_points_recover(self, tmp_path):
        """Partial-sector writes: only a prefix of the failing write
        reaches disk.  Every third op, with two different tear sizes."""
        points = fault_points(
            partial(workload, str(tmp_path / "count.mdb")), stride=3
        )
        for torn_bytes in (3, 97):
            for k in points:
                path = str(tmp_path / f"torn_{torn_bytes}_{k}.mdb")
                fault = crash_at(
                    partial(workload, path), k, "torn", torn_bytes
                )
                assert isinstance(fault, FaultInjected), k
                assert_recovered_state_valid(path, f"{k} (torn {torn_bytes})")

    def test_double_crash_during_recovery(self, tmp_path):
        """A second power cut while recovery itself is replaying the WAL
        must leave the file recoverable (replay is idempotent)."""
        path = str(tmp_path / "w.mdb")
        assert isinstance(crash_at(partial(workload, path), 40), FaultInjected)
        for k in range(1, 6):  # crash early in the recovery's own writes
            crash_at(lambda fs: MiniDatabase(path, fs=fs).close(), k)
        assert_recovered_state_valid(path, "double crash")


class TestTransientErrors:
    def test_failed_transaction_rolls_back_and_retries(self, tmp_path):
        """A transient OSError aborts the transaction; the rollback leaves
        the database consistent and the retry succeeds."""
        path = str(tmp_path / "w.mdb")
        inj = FaultInjector()
        db = MiniDatabase(path, cache_pages=3, fs=inj)
        with db.transaction():
            t = db.create_table("events", WIDTH)
            for i in range(BATCH):
                t.insert(row(i))
            t.create_index("by_key", (0, 1))
        inj.arm(FaultPolicy(fail_at=inj.op_count + 2, mode="error"))
        with pytest.raises(OSError):
            with db.transaction():
                t = db.table("events")
                for i in range(BATCH, 2 * BATCH):
                    t.insert_indexed(row(i))
        assert db.table("events").n_rows == BATCH
        assert db.check() == []
        with db.transaction():  # the fault was transient: retry works
            t = db.table("events")
            for i in range(BATCH, 2 * BATCH):
                t.insert_indexed(row(i))
            db.set_meta("count", 2 * BATCH)
        assert db.table("events").n_rows == 2 * BATCH
        assert db.check() == []
        db.close()
        inj.close_all()
        assert_recovered_state_valid(path, "transient error")


class TestChecksums:
    def _built_db(self, tmp_path) -> str:
        path = str(tmp_path / "c.mdb")
        with MiniDatabase(path) as db:
            t = db.create_table("t", 4)
            for i in range(500):
                t.insert((float(i), 1.0, 2.0, 3.0))
            t.create_index("ix", (0,))
        return path

    @pytest.mark.parametrize("offset_in_page", [0, 100, PAGE_CAPACITY - 1])
    def test_bit_flip_detected_never_returned(self, tmp_path, offset_in_page):
        """A flipped bit in a data page must surface as CorruptionError —
        the corrupt bytes must never be handed back as row data."""
        path = self._built_db(tmp_path)
        # flip one bit in page 1 (first heap page)
        with open(path, "r+b") as fh:
            fh.seek(PAGE_SIZE + offset_in_page)
            byte = fh.read(1)[0]
            fh.seek(PAGE_SIZE + offset_in_page)
            fh.write(bytes([byte ^ 0x01]))
        db = MiniDatabase(path)
        try:
            with pytest.raises(CorruptionError, match="checksum"):
                list(db.table("t").scan())
        finally:
            db.close()

    def test_bit_flip_reported_by_fsck(self, tmp_path):
        path = self._built_db(tmp_path)
        with open(path, "r+b") as fh:
            fh.seek(2 * PAGE_SIZE + 50)
            byte = fh.read(1)[0]
            fh.seek(2 * PAGE_SIZE + 50)
            fh.write(bytes([byte ^ 0x80]))
        db = MiniDatabase(path)
        try:
            problems = db.check()
            assert problems, "fsck missed the flipped bit"
            assert any("checksum" in str(p) for p in problems)
        finally:
            db.close()

    def test_clean_database_passes_fsck(self, tmp_path):
        path = self._built_db(tmp_path)
        db = MiniDatabase(path)
        try:
            assert db.check() == []
        finally:
            db.close()


class TestFsckStructural:
    def test_catalog_rowcount_mismatch_reported(self, tmp_path):
        path = str(tmp_path / "c.mdb")
        with MiniDatabase(path) as db:
            t = db.create_table("t", 2)
            for i in range(10):
                t.insert((float(i), 0.0))
            # lie in the catalog (then recompute the page checksum by
            # writing through the pager so only the count is wrong)
            t._info["n_rows"] = 99
        db = MiniDatabase(path)
        try:
            problems = db.check()
            assert any("99" in str(p) for p in problems)
        finally:
            db.close()

    def test_index_entry_count_mismatch_reported(self, tmp_path):
        path = str(tmp_path / "c.mdb")
        with MiniDatabase(path) as db:
            t = db.create_table("t", 2)
            for i in range(10):
                t.insert((float(i), 0.0))
            t.create_index("ix", (0,))
            t._info["indexes"]["ix"]["n_entries"] = 3
        db = MiniDatabase(path)
        try:
            problems = db.check()
            assert any("catalog records 3" in str(p) for p in problems)
        finally:
            db.close()


class TestHeapChainBounds:
    def test_cycle_of_empty_pages_is_corruption_not_a_hang(self, tmp_path):
        """Two empty heap pages pointing at each other carry no row to
        trip the row-count checks: the query-time chain walk must still
        stop, with the typed error, even without a guard."""
        store = MiniDbFeatureStore(str(tmp_path / "cycle.minidb"))
        try:
            heap = store.db.table("drop_points").heap
            first, second = heap.first_page, store.db.pager.allocate()
            heap._write_header(first, 0, second)
            heap._write_header(second, 0, first)
            raised = []

            def scan():
                try:
                    store.scan_points_array("drop")
                except Exception as exc:  # noqa: BLE001 - asserted below
                    raised.append(exc)

            reader = threading.Thread(target=scan, daemon=True)
            reader.start()
            reader.join(timeout=10.0)
            assert not reader.is_alive(), "heap chain walk never ended"
            assert len(raised) == 1
            assert isinstance(raised[0], CorruptionError)
            assert "cycle" in str(raised[0])
        finally:
            store.close()


class TestWalPageIdBound:
    """A committed frame with a valid CRC may still name a page the
    database cannot hold: replay must refuse it before writing a byte
    (not raise EINVAL on a negative seek, not grow a sparse file)."""

    @pytest.mark.parametrize("page_id", [-5, 2**30])
    def test_out_of_range_frame_is_corruption(self, tmp_path, page_id):
        path = str(tmp_path / "db.mdb")
        with MiniDatabase(path) as db:
            t = db.create_table("t", 2)
            for i in range(10):
                t.insert((float(i), 0.0))
        size = os.path.getsize(path)
        header = b"MDBWAL02" + struct.pack("<i", PAGE_SIZE)
        # the frame's u32 arg carries the id's bit pattern
        frame = encode_record(
            len(header), 1, page_id & 0xFFFFFFFF, bytes(PAGE_SIZE)
        )
        commit = encode_record(len(header) + len(frame), 2, 1, b"")
        with open(path + ".wal", "wb") as fh:
            fh.write(header + frame + commit)
        raised = []

        def reopen():
            try:
                MiniDatabase(path).close()
            except Exception as exc:  # noqa: BLE001 - asserted below
                raised.append(exc)

        opener = threading.Thread(target=reopen, daemon=True)
        opener.start()
        opener.join(timeout=10.0)
        assert not opener.is_alive(), "WAL replay never ended"
        assert len(raised) == 1 and isinstance(raised[0], CorruptionError)
        assert "offset 12" in str(raised[0])
        assert os.path.getsize(path) == size

    def test_version_1_log_is_refused(self, tmp_path):
        path = str(tmp_path / "db.mdb")
        MiniDatabase(path).close()
        with open(path + ".wal", "wb") as fh:
            fh.write(b"MDBWAL01" + struct.pack("<i", PAGE_SIZE) + b"\x00" * 9)
        with pytest.raises(RecoveryError, match="version-1"):
            MiniDatabase(path)


class TestLifecycle:
    def test_pager_close_is_idempotent(self, tmp_path):
        p = Pager(str(tmp_path / "p.pages"))
        p.close()
        p.close()  # second close is a no-op, not an error

    def test_database_close_is_idempotent(self, tmp_path):
        db = MiniDatabase(str(tmp_path / "d.mdb"))
        db.close()
        db.close()

    def test_pager_context_manager(self, tmp_path):
        with Pager(str(tmp_path / "p.pages")) as p:
            pid = p.allocate()
            p.write(pid, bytes(PAGE_SIZE))
        with pytest.raises(StorageError):
            p.read(pid)

    def test_closed_database_raises_storage_error(self, tmp_path):
        db = MiniDatabase(str(tmp_path / "d.mdb"))
        db.close()
        with pytest.raises(StorageError):
            db.create_table("t", 2)

    def test_clean_close_removes_wal(self, tmp_path):
        path = str(tmp_path / "d.mdb")
        with MiniDatabase(path) as db:
            t = db.create_table("t", 2)
            t.insert((1.0, 2.0))
        assert os.path.exists(path)
        assert not os.path.exists(path + ".wal")

    def test_rollback_restores_pre_transaction_state(self, tmp_path):
        path = str(tmp_path / "d.mdb")
        db = MiniDatabase(path)
        with db.transaction():
            t = db.create_table("t", 2)
            for i in range(100):
                t.insert((float(i), 0.0))
        with pytest.raises(RuntimeError):
            with db.transaction():
                t = db.table("t")
                for i in range(100, 200):
                    t.insert((float(i), 0.0))
                raise RuntimeError("abort")
        t = db.table("t")
        assert t.n_rows == 100
        assert [r for _rid, r in t.scan()] == [
            (float(i), 0.0) for i in range(100)
        ]
        assert db.check() == []
        db.close()

"""Tests for the deterministic fault-injection harness itself.

The durability tests (test_minidb_durability.py) lean entirely on this
harness, so its own semantics — op counting, crash freezing, torn
prefixes, transient errors — are pinned down here first.
"""

import pytest

from repro.storage.faults import (
    FaultInjected,
    FaultInjector,
    FaultPolicy,
)


@pytest.fixture
def target(tmp_path):
    return str(tmp_path / "data.bin")


class TestFaultPolicy:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            FaultPolicy(mode="melt")

    def test_default_is_passthrough(self, target):
        inj = FaultInjector()
        f = inj.open(target, "w+b")
        f.write(b"hello")
        f.seek(0)
        assert f.read() == b"hello"
        inj.close_all()


class TestOpCounting:
    def test_fault_free_run_counts_ops(self, target):
        inj = FaultInjector()
        f = inj.open(target, "w+b")
        for _ in range(5):
            f.write(b"x")
        f.truncate(3)
        inj.fsync(f)
        inj.close_all()
        assert inj.op_count == 7

    def test_reads_are_not_counted(self, target):
        inj = FaultInjector()
        f = inj.open(target, "w+b")
        f.write(b"abc")
        f.seek(0)
        f.read()
        inj.close_all()
        assert inj.op_count == 1

    def test_ops_filter(self, target):
        inj = FaultInjector(FaultPolicy(ops=("write",)))
        f = inj.open(target, "w+b")
        f.write(b"x")
        inj.fsync(f)
        f.truncate(0)
        inj.close_all()
        assert inj.op_count == 1

    def test_counter_shared_across_files(self, tmp_path):
        inj = FaultInjector()
        a = inj.open(str(tmp_path / "a"), "w+b")
        b = inj.open(str(tmp_path / "b"), "w+b")
        a.write(b"1")
        b.write(b"2")
        a.write(b"3")
        inj.close_all()
        assert inj.op_count == 3


class TestCrashMode:
    def test_crash_freezes_disk_state(self, target):
        inj = FaultInjector(FaultPolicy(fail_at=3, mode="crash"))
        f = inj.open(target, "w+b")
        f.write(b"one")
        f.write(b"two")
        with pytest.raises(FaultInjected):
            f.write(b"three")
        inj.close_all()
        with open(target, "rb") as fh:
            assert fh.read() == b"onetwo"

    def test_everything_fails_after_crash(self, target):
        inj = FaultInjector(FaultPolicy(fail_at=1, mode="crash"))
        f = inj.open(target, "w+b")
        with pytest.raises(FaultInjected):
            f.write(b"x")
        for op in (lambda: f.write(b"y"), lambda: f.read(),
                   lambda: f.seek(0), f.flush):
            with pytest.raises(FaultInjected):
                op()
        with pytest.raises(FaultInjected):
            inj.open(target, "r+b")
        inj.close_all()  # must not raise

    def test_close_allowed_after_crash(self, target):
        inj = FaultInjector(FaultPolicy(fail_at=1, mode="crash"))
        f = inj.open(target, "w+b")
        with pytest.raises(FaultInjected):
            f.write(b"x")
        f.close()
        assert f.closed


class TestTornMode:
    def test_torn_write_persists_prefix(self, target):
        inj = FaultInjector(FaultPolicy(fail_at=2, mode="torn", torn_bytes=4))
        f = inj.open(target, "w+b")
        f.write(b"head")
        with pytest.raises(FaultInjected):
            f.write(b"0123456789")
        inj.close_all()
        with open(target, "rb") as fh:
            assert fh.read() == b"head0123"

    def test_torn_freezes_like_crash(self, target):
        inj = FaultInjector(FaultPolicy(fail_at=1, mode="torn", torn_bytes=1))
        f = inj.open(target, "w+b")
        with pytest.raises(FaultInjected):
            f.write(b"abc")
        with pytest.raises(FaultInjected):
            f.write(b"more")
        inj.close_all()


class TestErrorMode:
    def test_transient_error_is_recoverable(self, target):
        inj = FaultInjector(FaultPolicy(fail_at=2, mode="error"))
        f = inj.open(target, "w+b")
        f.write(b"ok")
        with pytest.raises(OSError):
            f.write(b"fails")
        # the file keeps working afterwards
        f.write(b"-again")
        f.seek(0)
        assert f.read() == b"ok-again"
        inj.close_all()

    def test_transient_error_is_not_fault_injected(self, target):
        inj = FaultInjector(FaultPolicy(fail_at=1, mode="error"))
        f = inj.open(target, "w+b")
        with pytest.raises(OSError) as exc_info:
            f.write(b"x")
        assert not isinstance(exc_info.value, FaultInjected)
        inj.close_all()


class TestArm:
    def test_arm_swaps_policy_keeps_counter(self, target):
        inj = FaultInjector()
        f = inj.open(target, "w+b")
        f.write(b"a")
        f.write(b"b")
        inj.arm(FaultPolicy(fail_at=3, mode="crash"))
        with pytest.raises(FaultInjected):
            f.write(b"c")
        inj.close_all()


class TestCorruptionMode:
    """Silent read corruption — the failure checksums exist to catch."""

    @pytest.fixture
    def store(self, walk_series):
        from repro.core.index import SegDiffIndex

        index = SegDiffIndex.build(walk_series, 0.3, 4 * 3600.0)
        yield index.store
        index.close()

    def test_invalid_corrupt_mode_rejected(self):
        from repro.storage.faults import ReadFaultPolicy

        with pytest.raises(ValueError, match="corrupt"):
            ReadFaultPolicy(corrupt_mode="scramble")

    def test_flip_perturbs_one_value_silently(self, store):
        import numpy as np

        from repro.storage.faults import (
            FaultyStoreWrapper,
            ReadFaultPolicy,
        )

        clean = store.read_table_rows("drop_points")
        wrapper = FaultyStoreWrapper(
            store, ReadFaultPolicy(corrupt_at={1}, corrupt_delta=2.5)
        )
        dirty = wrapper.read_table_rows("drop_points")
        diff = dirty - clean
        assert np.count_nonzero(diff) == 1
        assert diff[0, 1] == 2.5
        assert wrapper.faults_injected == 1
        # later reads heal; the wrapped store was never touched
        assert np.array_equal(
            wrapper.read_table_rows("drop_points"), clean
        )
        assert np.array_equal(store.read_table_rows("drop_points"), clean)

    def test_replace_zeroes_the_row(self, store):
        import numpy as np

        from repro.storage.faults import (
            FaultyStoreWrapper,
            ReadFaultPolicy,
        )

        wrapper = FaultyStoreWrapper(
            store,
            ReadFaultPolicy(corrupt_at={1}, corrupt_mode="replace"),
        )
        dirty = wrapper.read_table_rows("drop_points")
        assert np.all(dirty[0] == 0.0)
        assert not np.all(dirty[1] == 0.0)

    def test_corruption_applies_to_scan_primitives_too(self, store):
        import numpy as np

        from repro.storage.faults import (
            FaultyStoreWrapper,
            ReadFaultPolicy,
        )

        clean = store.scan_points_array("drop")
        wrapper = FaultyStoreWrapper(store, ReadFaultPolicy(corrupt_at={1}))
        assert not np.array_equal(wrapper.scan_points_array("drop"), clean)

    def test_empty_result_passes_through(self, store):
        from repro.storage.faults import (
            FaultyStoreWrapper,
            ReadFaultPolicy,
        )

        wrapper = FaultyStoreWrapper(store, ReadFaultPolicy(corrupt_at={1}))
        rows = wrapper.read_table_rows("drop_points", 0, 0)
        assert rows.shape[0] == 0

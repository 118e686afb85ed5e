"""Deterministic I/O fault injection for durability testing.

The MiniDB pager and WAL accept an ``opener`` hook; a
:class:`FaultInjector` provides one that wraps every file it opens in a
:class:`FaultyFile`.  All wrapped files share one operation counter, so a
:class:`FaultPolicy` can say "fail the Nth write across the whole
database" — the precision needed to enumerate every crash point of a
workload::

    injector = FaultInjector(FaultPolicy(fail_at=17, mode="crash"))
    db = MiniDatabase(path, opener=injector.open)
    try:
        workload(db)
    except FaultInjected:
        pass                       # the "machine" died mid-write
    injector.close_all()
    db = MiniDatabase(path)        # recovery replays the WAL
    assert db.check() == []

Fault modes:

* ``"crash"`` — the op does nothing; this and every later I/O raises
  :class:`FaultInjected`.  Because files are opened unbuffered, the disk
  state is frozen exactly at the preceding operation, like a power cut.
* ``"torn"`` — the write persists only its first ``torn_bytes`` bytes,
  then the file freezes as for ``"crash"`` — a partial sector write.
* ``"error"`` — the op raises :class:`OSError` once and the file keeps
  working; a transient fault the caller may retry or roll back.
* ``"enospc"`` — the op raises ``OSError(ENOSPC)`` once and the file
  keeps working; a full disk the caller must roll back from without
  losing the previous durable state.

The live tier does its I/O through whole-file operations rather than an
``opener`` hook, so it is faulted one level up: :class:`RealFS` is the
filesystem facade (open / replace / remove / fsync) the live index and
its WAL call for every counted operation, and :class:`FaultyFS` is the
drop-in that routes those calls through a :class:`FaultInjector` — one
shared op counter across WAL appends, partition seal writes, and
manifest installs, so the crash matrix can enumerate every fault point
of an ingest workload.

:class:`FaultInjected` deliberately does **not** derive from
``ReproError``: library code must never accidentally swallow a simulated
power cut.
"""

from __future__ import annotations

import errno
import os
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from ..errors import StorageError

__all__ = [
    "FaultInjected",
    "FaultPolicy",
    "FaultInjector",
    "FaultyFile",
    "RealFS",
    "FaultyFS",
    "ReadFaultPolicy",
    "FaultyStoreWrapper",
]


class FaultInjected(Exception):
    """A simulated I/O fault (crash, torn write, or transient error)."""


@dataclass
class FaultPolicy:
    """When and how to fail.

    Parameters
    ----------
    fail_at:
        1-based index of the counted operation that triggers the fault;
        ``None`` disables injection (pass-through).
    mode:
        ``"crash"``, ``"torn"``, ``"error"``, or ``"enospc"`` (see
        module docstring).
    torn_bytes:
        For ``"torn"``: how many bytes of the failing write reach disk.
        A deliberately odd default lands mid-record in every structure.
    ops:
        Which operations count toward ``fail_at``.  ``"replace"`` is
        only issued by the filesystem facade (:class:`FaultyFS`);
        including it by default is harmless for opener-hook users like
        MiniDB, which never perform one.
    """

    fail_at: Optional[int] = None
    mode: str = "crash"
    torn_bytes: int = 97
    ops: Tuple[str, ...] = ("write", "truncate", "fsync", "replace")

    def __post_init__(self) -> None:
        if self.mode not in ("crash", "torn", "error", "enospc"):
            raise ValueError(f"unknown fault mode {self.mode!r}")


class FaultInjector:
    """Shared op counter + policy for a set of :class:`FaultyFile` s.

    Use :attr:`op_count` after a fault-free run to learn how many crash
    points a workload exposes, then re-run once per point.
    """

    def __init__(self, policy: Optional[FaultPolicy] = None) -> None:
        self.policy = policy or FaultPolicy()
        self.op_count = 0
        self.crashed = False
        self._files: List[FaultyFile] = []

    def open(self, path: str, mode: str) -> "FaultyFile":
        """The ``opener`` hook: open ``path`` unbuffered and wrap it."""
        if self.crashed:
            raise FaultInjected("cannot open files after a crash")
        raw = open(path, mode, buffering=0)
        wrapped = FaultyFile(raw, self)
        self._files.append(wrapped)
        return wrapped

    def arm(self, policy: FaultPolicy) -> None:
        """Swap in a new policy (counter keeps running)."""
        self.policy = policy

    def _account(self, op: str) -> Optional[str]:
        """Count one op; return the fault mode to apply, if any."""
        if self.crashed:
            raise FaultInjected(f"{op} after simulated crash")
        if op not in self.policy.ops:
            return None
        self.op_count += 1
        if self.policy.fail_at is not None and self.op_count == self.policy.fail_at:
            return self.policy.mode
        return None

    def close_all(self) -> None:
        """Release every OS handle (safe after a crash)."""
        for f in self._files:
            f._raw_close()
        self._files = []


class FaultyFile:
    """An unbuffered binary file that fails on command (see module doc)."""

    def __init__(self, raw, injector: FaultInjector) -> None:
        self._raw = raw
        self._injector = injector

    # -- counted, failable operations ---------------------------------- #

    def write(self, data: bytes) -> int:
        fault = self._injector._account("write")
        if fault == "crash":
            self._injector.crashed = True
            raise FaultInjected("injected crash during write")
        if fault == "torn":
            self._raw.write(data[: self._injector.policy.torn_bytes])
            self._injector.crashed = True
            raise FaultInjected(
                f"injected torn write ({self._injector.policy.torn_bytes}"
                f"/{len(data)} bytes reached disk)"
            )
        if fault == "error":
            raise OSError("injected transient I/O error")
        if fault == "enospc":
            raise OSError(errno.ENOSPC, "injected disk-full write")
        return self._raw.write(data)

    def truncate(self, size: Optional[int] = None) -> int:
        fault = self._injector._account("truncate")
        if fault in ("crash", "torn"):
            self._injector.crashed = True
            raise FaultInjected("injected crash during truncate")
        if fault == "error":
            raise OSError("injected transient I/O error")
        if fault == "enospc":
            raise OSError(errno.ENOSPC, "injected disk-full truncate")
        return self._raw.truncate(size)

    def fsync(self) -> None:
        fault = self._injector._account("fsync")
        if fault in ("crash", "torn"):
            self._injector.crashed = True
            raise FaultInjected("injected crash during fsync")
        if fault == "error":
            raise OSError("injected transient I/O error")
        if fault == "enospc":
            raise OSError(errno.ENOSPC, "injected disk-full fsync")
        os.fsync(self._raw.fileno())

    # -- pass-through operations --------------------------------------- #

    def read(self, n: int = -1) -> bytes:
        if self._injector.crashed:
            raise FaultInjected("read after simulated crash")
        return self._raw.read(n)

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:
        if self._injector.crashed:
            raise FaultInjected("seek after simulated crash")
        return self._raw.seek(offset, whence)

    def tell(self) -> int:
        return self._raw.tell()

    def flush(self) -> None:
        if self._injector.crashed:
            raise FaultInjected("flush after simulated crash")
        # unbuffered: nothing to do

    def fileno(self) -> int:
        return self._raw.fileno()

    def close(self) -> None:
        # closing is always allowed — the state on disk stays frozen
        # because writes are unbuffered
        self._raw_close()

    def _raw_close(self) -> None:
        try:
            self._raw.close()
        except OSError:
            pass

    @property
    def closed(self) -> bool:
        return self._raw.closed


# ---------------------------------------------------------------------- #
# filesystem facade (live-tier write path)
# ---------------------------------------------------------------------- #


class RealFS:
    """The live tier's filesystem facade: the whole-file operations the
    live index, its WAL, and the partition manifest issue — each one an
    injection point when a :class:`FaultyFS` stands in.

    Files are opened **unbuffered**, so under injection the disk state
    freezes exactly at the last completed operation (a power cut), and
    in production a completed ``write`` has at least reached the kernel.
    """

    def open(self, path: str, mode: str):
        return open(path, mode, buffering=0)

    def replace(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def remove(self, path: str) -> None:
        os.remove(path)

    def fsync_file(self, path: str) -> None:
        """fsync a closed file by path (seal write barrier)."""
        fd = os.open(path, os.O_RDWR)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def fsync_dir(self, directory: str) -> None:
        """Best-effort directory fsync (makes a rename durable).

        Swallows ``OSError``: some filesystems refuse directory fsync,
        and by the time it runs the rename is already *installed* — a
        failure here must not trick the caller into rolling back a
        commit that readers can see.
        """
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)


class FaultyFS(RealFS):
    """A :class:`RealFS` whose every operation is counted and failable.

    Shares the :class:`FaultInjector`'s op counter with any opener-hook
    files the same injector wraps, so ``fail_at`` enumerates the crash
    points of the *whole* ingest path — WAL appends, seal writes,
    manifest installs — with one sweep.
    """

    def __init__(self, injector: FaultInjector) -> None:
        self.injector = injector

    def open(self, path: str, mode: str) -> FaultyFile:
        return self.injector.open(path, mode)

    def replace(self, src: str, dst: str) -> None:
        fault = self.injector._account("replace")
        if fault in ("crash", "torn"):
            self.injector.crashed = True
            raise FaultInjected(f"injected crash during replace -> {dst}")
        if fault == "error":
            raise OSError("injected transient I/O error in replace")
        if fault == "enospc":
            raise OSError(errno.ENOSPC, "injected disk-full replace")
        os.replace(src, dst)

    def remove(self, path: str) -> None:
        if self.injector.crashed:
            raise FaultInjected("remove after simulated crash")
        os.remove(path)

    def fsync_file(self, path: str) -> None:
        fault = self.injector._account("fsync")
        if fault == "crash":
            self.injector.crashed = True
            raise FaultInjected(f"injected crash during fsync of {path}")
        if fault == "torn":
            # a crash while flushing a freshly-written file: model the
            # file surviving only as a partial prefix — the torn
            # partition the scrub pass must quarantine
            try:
                with open(path, "r+b") as fh:
                    fh.truncate(self.injector.policy.torn_bytes)
            except OSError:
                pass
            self.injector.crashed = True
            raise FaultInjected(
                f"injected torn file during fsync of {path}"
            )
        if fault == "error":
            raise OSError("injected transient I/O error in fsync")
        if fault == "enospc":
            raise OSError(errno.ENOSPC, "injected disk-full fsync")
        super().fsync_file(path)

    def fsync_dir(self, directory: str) -> None:
        fault = self.injector._account("fsync")
        if fault in ("crash", "torn"):
            self.injector.crashed = True
            raise FaultInjected(
                f"injected crash during directory fsync of {directory}"
            )
        if fault in ("error", "enospc"):
            # RealFS.fsync_dir swallows OSError by contract (the rename
            # is already installed), so transient modes are a no-op here
            return
        super().fsync_dir(directory)


# ---------------------------------------------------------------------- #
# read-path chaos harness (engine resilience testing)
# ---------------------------------------------------------------------- #


@dataclass
class ReadFaultPolicy:
    """When and how a :class:`FaultyStoreWrapper` misbehaves.

    Faults key off the wrapper's global 1-based read-call counter (every
    physical read primitive increments it), so a schedule like
    ``error_at={2}`` means "the second primitive call of the workload
    fails" regardless of which operator issues it.

    Parameters
    ----------
    error_at:
        Call indices that raise :class:`~repro.errors.StorageError` —
        the *typed* failure the engine's breaker and batch isolation
        handle (unlike :class:`FaultInjected`, which models a power cut
        and must never be swallowed).
    latency_at:
        Call indices delayed by ``latency_s`` before proceeding.
    hang_at:
        Call indices that hang "forever": the wrapper sleeps in
        ``hang_slice_s`` slices, checking the query's guard between
        slices, so a deadline still cancels the call cooperatively
        within one slice.  Without a guard the hang aborts with
        :class:`~repro.errors.StorageError` after ``hang_cap_s`` — a
        safety net so an unguarded test cannot wedge the suite.
    fail_next:
        Countdown of calls to fail with ``StorageError`` starting now,
        after which the store heals — the knob for driving a circuit
        breaker open and then letting its half-open probe succeed.
    corrupt_at:
        Call indices whose *result* is silently corrupted: the wrapper
        copies the returned row array and mutates one row (never the
        store's own arrays), modelling bit rot that no exception
        announces — the failure mode checksum anti-entropy exists to
        catch.  ``corrupt_mode="flip"`` perturbs one value of the row
        by ``corrupt_delta``; ``"replace"`` zeroes the whole row.
    """

    error_at: Set[int] = field(default_factory=set)
    latency_at: Set[int] = field(default_factory=set)
    hang_at: Set[int] = field(default_factory=set)
    corrupt_at: Set[int] = field(default_factory=set)
    corrupt_mode: str = "flip"
    corrupt_delta: float = 1.0
    fail_next: int = 0
    latency_s: float = 0.05
    hang_slice_s: float = 0.02
    hang_cap_s: float = 30.0

    def __post_init__(self) -> None:
        if self.corrupt_mode not in ("flip", "replace"):
            raise ValueError(
                f"unknown corrupt mode {self.corrupt_mode!r}"
            )


class FaultyStoreWrapper:
    """Inject errors/latency/hangs into any feature store's read path.

    Wraps a finalized :class:`~repro.storage.base.FeatureStore` and
    intercepts the four block read primitives (plus the optional grid
    probe and ``read_table_rows``); everything else — counts, sampling,
    ``BACKEND``, ``THREAD_SAFE_READS``, pager stats — delegates to the
    wrapped store, so a :class:`~repro.engine.session.QuerySession` over
    the wrapper behaves identically to one over the store until a fault
    fires::

        chaotic = FaultyStoreWrapper(store, ReadFaultPolicy(error_at={1}))
        session = QuerySession(chaotic, resilience=policy)
    """

    def __init__(self, store, policy: Optional[ReadFaultPolicy] = None):
        self._store = store
        self.policy = policy or ReadFaultPolicy()
        #: Global count of read-primitive calls (fault schedule domain).
        self.read_calls = 0
        #: How many faults actually fired.
        self.faults_injected = 0
        self._lock = threading.Lock()

    def __getattr__(self, name):
        # everything not intercepted behaves exactly like the real store
        return getattr(self._store, name)

    def reset(self) -> None:
        """Zero the call counter (start a fresh fault schedule)."""
        with self._lock:
            self.read_calls = 0
            self.faults_injected = 0

    # -- fault machinery ------------------------------------------------ #

    def _inject(self, op: str, guard) -> bool:
        """Apply the schedule for one call; returns whether the call's
        *result* must be corrupted (see :meth:`_corrupt`)."""
        with self._lock:
            self.read_calls += 1
            call = self.read_calls
            fail = False
            if self.policy.fail_next > 0:
                self.policy.fail_next -= 1
                fail = True
            if fail or call in self.policy.error_at:
                self.faults_injected += 1
                raise StorageError(
                    f"injected read fault at call {call} ({op})"
                )
            delay = call in self.policy.latency_at
            hang = call in self.policy.hang_at
            corrupt = call in self.policy.corrupt_at
            if delay or hang or corrupt:
                self.faults_injected += 1
        if delay:
            time.sleep(self.policy.latency_s)
        if hang:
            self._hang(op, guard)
        return corrupt

    def _corrupt(self, rows):
        """Silently damage one row of a *copy* of the result.

        The wrapped store's arrays are never touched (the memory backend
        hands out its real frozen arrays), so the corruption is confined
        to this read — exactly a bad sector surfacing on one replica.
        """
        import numpy as np

        rows = np.array(rows, dtype=float, copy=True)
        if rows.size == 0:
            return rows
        if self.policy.corrupt_mode == "replace":
            rows[0, :] = 0.0
        else:
            rows[0, min(1, rows.shape[1] - 1)] += self.policy.corrupt_delta
        return rows

    def _hang(self, op: str, guard) -> None:
        """Sleep 'forever' in small slices, staying cancellable."""
        cap = time.monotonic() + self.policy.hang_cap_s
        while True:
            if guard is not None:
                guard.tick()  # raises QueryTimeout past the deadline
            if time.monotonic() >= cap:
                raise StorageError(
                    f"injected hang in {op} exceeded the "
                    f"{self.policy.hang_cap_s:g}s safety cap (no guard "
                    "cancelled it)"
                )
            time.sleep(self.policy.hang_slice_s)

    # -- intercepted read primitives ------------------------------------ #

    def scan_points_array(self, kind, t_threshold=None, v_threshold=None,
                          cache="warm", guard=None):
        corrupt = self._inject("scan_points_array", guard)
        rows = self._store.scan_points_array(
            kind, t_threshold=t_threshold, v_threshold=v_threshold,
            cache=cache, guard=guard,
        )
        return self._corrupt(rows) if corrupt else rows

    def probe_point_index_array(self, kind, t_threshold, v_threshold=None,
                                cache="warm", guard=None):
        corrupt = self._inject("probe_point_index_array", guard)
        rows = self._store.probe_point_index_array(
            kind, t_threshold, v_threshold=v_threshold, cache=cache,
            guard=guard,
        )
        return self._corrupt(rows) if corrupt else rows

    def scan_lines_array(self, kind, t_threshold=None, v_threshold=None,
                         cache="warm", guard=None):
        corrupt = self._inject("scan_lines_array", guard)
        rows = self._store.scan_lines_array(
            kind, t_threshold=t_threshold, v_threshold=v_threshold,
            cache=cache, guard=guard,
        )
        return self._corrupt(rows) if corrupt else rows

    def probe_line_index_array(self, kind, t_threshold, v_threshold=None,
                               cache="warm", guard=None):
        corrupt = self._inject("probe_line_index_array", guard)
        rows = self._store.probe_line_index_array(
            kind, t_threshold, v_threshold=v_threshold, cache=cache,
            guard=guard,
        )
        return self._corrupt(rows) if corrupt else rows

    def probe_point_grid(self, kind, t_threshold, v_threshold, guard=None):
        corrupt = self._inject("probe_point_grid", guard)
        rows = self._store.probe_point_grid(kind, t_threshold, v_threshold)
        return self._corrupt(rows) if corrupt else rows

    def read_table_rows(self, table, start=0, stop=None, guard=None):
        corrupt = self._inject("read_table_rows", guard)
        rows = self._store.read_table_rows(table, start, stop)
        return self._corrupt(rows) if corrupt else rows

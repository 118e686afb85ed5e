"""Deterministic I/O fault injection for durability testing.

:class:`FaultInjector` is the faulty twin of the file facade
(:class:`~repro.storage.durable.RealFS`): pass it wherever storage code
takes an ``fs`` — the MiniDB pager and its WAL, a
:class:`~repro.storage.minidb.MiniDbFeatureStore`, the live index, its
WAL and the manifests — and every file it opens is wrapped in a
:class:`FaultyFile`.  Files and facade calls share one operation
counter, so a :class:`FaultPolicy` can say "fail the Nth write across
the whole workload" — the precision needed to enumerate every crash
point::

    injector = FaultInjector(FaultPolicy(fail_at=17, mode="crash"))
    db = MiniDatabase(path, fs=injector)
    try:
        workload(db)
    except FaultInjected:
        pass                       # the "machine" died mid-write
    injector.close_all()
    db = MiniDatabase(path)        # recovery replays the WAL
    assert db.check() == []

Counted operations are ``write``, ``truncate``, ``fsync`` (of a file,
a file by path, or a directory) and ``replace``.  Fault modes:

* ``"crash"`` — the op does nothing; this and every later I/O raises
  :class:`FaultInjected`.  Because files are opened unbuffered, the disk
  state is frozen exactly at the preceding operation, like a power cut.
* ``"torn"`` — as ``"crash"``, but a write persists its first
  ``torn_bytes`` bytes (a partial sector write) and an fsync of a file
  by path leaves it truncated to ``torn_bytes`` (a torn partition).
* ``"error"`` — the op raises :class:`OSError` once and the file keeps
  working; a transient fault the caller may retry or roll back.
* ``"enospc"`` — the op raises ``OSError(ENOSPC)`` once and the file
  keeps working; a full disk the caller must roll back from without
  losing the previous durable state.

:class:`FaultInjected` (defined by the durability kernel) is a
``BaseException``: library code never swallows a simulated power cut.
"""

from __future__ import annotations

import errno
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Set, Tuple

from ..errors import StorageError
from .durable import FaultInjected, RealFS

__all__ = [
    "FaultInjected",
    "FaultPolicy",
    "FaultInjector",
    "FaultyFile",
    "ReadFaultPolicy",
    "FaultyStoreWrapper",
]


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
        Which operations count toward ``fail_at``.
    """

    fail_at: Optional[int] = None
    mode: str = "crash"
    torn_bytes: int = 97
    ops: Tuple[str, ...] = ("write", "truncate", "fsync", "replace")

    def __post_init__(self) -> None:
        if self.mode not in ("crash", "torn", "error", "enospc"):
            raise ValueError(f"unknown fault mode {self.mode!r}")


class FaultInjector(RealFS):
    """The faulty file facade: shared op counter + policy.

    Use :attr:`op_count` after a fault-free run to learn how many crash
    points a workload exposes, then re-run once per point; :attr:`op_log`
    lists those points as ``(op, path)`` in order.
    """

    def __init__(self, policy: Optional[FaultPolicy] = None) -> None:
        self.policy = policy or FaultPolicy()
        self.op_count = 0
        self.op_log: List[Tuple[str, str]] = []
        self.crashed = False
        self._files: List[FaultyFile] = []

    def arm(self, policy: FaultPolicy) -> None:
        """Swap in a new policy (counter keeps running)."""
        self.policy = policy

    def _fail(self, op: str, what: str,
              tear: Optional[Callable[[int], None]] = None) -> None:
        """Count ``op`` on ``what`` and apply the armed fault if this is
        its turn: the one fault dispatch of every failable operation.
        ``tear(n)`` leaves the torn ``n``-byte remains of the op."""
        if self.crashed:
            raise FaultInjected(f"{op} of {what} after simulated crash")
        if op not in self.policy.ops:
            return
        self.op_count += 1
        self.op_log.append((op, what))
        if self.policy.fail_at != self.op_count:
            return
        mode = self.policy.mode
        if mode == "error":
            raise OSError(f"injected transient I/O error in {op} of {what}")
        if mode == "enospc":
            raise OSError(errno.ENOSPC, f"injected disk-full {op} of {what}")
        if mode == "torn" and tear is not None:
            tear(self.policy.torn_bytes)
        self.crashed = True
        raise FaultInjected(f"injected {mode} during {op} of {what}")

    # -- the facade ----------------------------------------------------- #

    def open(self, path: str, mode: str, buffering: int = 0) -> "FaultyFile":
        """Open ``path`` unbuffered (whatever ``buffering`` asks) and wrap
        it, so the disk state freezes at the last completed op."""
        self._fail("open", path)
        wrapped = FaultyFile(open(path, mode, buffering=0), path, self)
        self._files.append(wrapped)
        return wrapped

    def fsync(self, fh) -> None:
        self._fail("fsync", getattr(fh, "path", "file"))
        super().fsync(fh)

    def replace(self, src: str, dst: str) -> None:
        self._fail("replace", dst)
        super().replace(src, dst)

    def remove(self, path: str) -> None:
        self._fail("remove", path)
        super().remove(path)

    def fsync_file(self, path: str) -> None:
        def tear(n: int) -> None:
            # a crash while flushing a freshly written file: it survives
            # only as a prefix — the torn partition scrub must quarantine
            with open(path, "r+b") as fh:
                fh.truncate(n)

        self._fail("fsync", path, tear)
        super().fsync_file(path)

    def fsync_dir(self, directory: str) -> None:
        try:
            self._fail("fsync", directory)
        except OSError:
            # best effort by contract (the rename is already installed):
            # transient modes are a no-op here, as in RealFS
            return
        super().fsync_dir(directory)

    def close_all(self) -> None:
        """Release every OS handle (safe after a crash)."""
        for f in self._files:
            f.close()
        self._files = []


class FaultyFile:
    """An unbuffered binary file that fails on command (see module doc)."""

    def __init__(self, raw, path: str, injector: FaultInjector) -> None:
        self._raw = raw
        self.path = path
        self._injector = injector

    # -- counted, failable operations ---------------------------------- #

    def write(self, data: bytes) -> int:
        self._injector._fail(
            "write", self.path, lambda n: self._raw.write(data[:n])
        )
        return self._raw.write(data)

    def truncate(self, size: Optional[int] = None) -> int:
        self._injector._fail("truncate", self.path)
        return self._raw.truncate(size)

    # -- uncounted operations (they still fail after a crash) ---------- #

    def read(self, n: int = -1) -> bytes:
        self._injector._fail("read", self.path)
        return self._raw.read(n)

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:
        self._injector._fail("seek", self.path)
        return self._raw.seek(offset, whence)

    def flush(self) -> None:
        self._injector._fail("flush", self.path)  # unbuffered: no-op

    def fileno(self) -> int:
        return self._raw.fileno()

    def close(self) -> None:
        # closing is always allowed — the state on disk stays frozen
        # because writes are unbuffered
        try:
            self._raw.close()
        except OSError:
            pass

    @property
    def closed(self) -> bool:
        return self._raw.closed


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


def _intercepted(name: str, pass_guard: bool = True):
    """The wrapped store's read primitive ``name``, behind the fault
    schedule (the store's own arguments pass through unchanged)."""

    def call(self, *args, guard=None, **kwargs):
        corrupt = self._inject(name, guard)
        if pass_guard:
            kwargs["guard"] = guard
        rows = getattr(self._store, name)(*args, **kwargs)
        return self._corrupt(rows) if corrupt else rows

    call.__name__ = name
    return call


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

    scan_points_array = _intercepted("scan_points_array")
    probe_point_index_array = _intercepted("probe_point_index_array")
    scan_lines_array = _intercepted("scan_lines_array")
    probe_line_index_array = _intercepted("probe_line_index_array")
    probe_point_grid = _intercepted("probe_point_grid", pass_guard=False)
    read_table_rows = _intercepted("read_table_rows", pass_guard=False)

"""One crash-matrix runner for every durability suite.

A workload is a callable ``workload(fs)`` doing all of its file I/O
through the facade ``fs``.  :func:`fault_points` learns how many counted
operations it exposes from one fault-free run and picks the points to
fault (a stride, or every one under ``REPRO_CRASH_MATRIX=full``);
:func:`crash_at` re-runs it with fault ``k`` armed and releases every
handle afterwards, like a machine that died at that op.
"""

import os
from typing import Callable, List, Optional

from repro.storage.faults import FaultInjected, FaultInjector, FaultPolicy


def count_ops(workload: Callable) -> int:
    """Counted file operations of one fault-free run of ``workload``."""
    inj = FaultInjector()
    try:
        workload(inj)
    finally:
        inj.close_all()
    return inj.op_count


def fault_points(
    workload: Callable,
    stride: int = 1,
    start: int = 1,
    samples: Optional[int] = None,
) -> List[int]:
    """The 1-based ops of ``workload`` to fault: every ``stride``-th from
    ``start``, or about ``samples`` of them spread evenly; the last op is
    always included.  ``REPRO_CRASH_MATRIX=full`` faults every op."""
    n_ops = count_ops(workload)
    if samples is not None:
        stride = max(1, n_ops // samples)
    if os.environ.get("REPRO_CRASH_MATRIX") == "full":
        stride, start = 1, 1
    points = list(range(start, n_ops + 1, stride))
    if points[-1] != n_ops:
        points.append(n_ops)
    return points


def crash_at(
    workload: Callable, k: int, mode: str = "crash", torn_bytes: int = 97
) -> Optional[BaseException]:
    """Run ``workload`` with fault ``k`` armed, then close every handle.
    Returns the fault it died of (:class:`FaultInjected`, or the
    ``OSError`` of a transient mode), ``None`` if it ran to the end."""
    inj = FaultInjector(FaultPolicy(fail_at=k, mode=mode, torn_bytes=torn_bytes))
    try:
        workload(inj)
    except (FaultInjected, OSError) as exc:
        return exc
    finally:
        inj.close_all()
    return None

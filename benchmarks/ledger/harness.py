"""Timing plumbing shared by the four workloads.

Two defences against this box's noise (README.md has the measurements):
every sample is divided by the host's slow-down at the moment it was
taken (:class:`Clock`), and the estimator is the one found tightest
here — every op is timed once per *round* (a round runs all of a
workload's phases, so phases interleave round-robin and drift cannot
alias onto one of them), an op's latency is the median of its per-round
samples, and p50 / p90 / sum are taken over those per-op medians.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "Clock",
    "Recorder",
    "run_rounds",
    "median",
    "percentile",
    "calib_kernel",
    "peak_rss_mb",
    "dir_bytes",
    "provenance",
]

_MAX_ERRORS_KEPT = 5


def median(xs) -> float:
    return float(statistics.median(xs))


def percentile(xs, q: float) -> float:
    return float(np.percentile(np.asarray(xs, dtype=float), q))


@contextmanager
def _unobserved(phase: str, op_id: int):
    yield lambda result: None


class Clock:
    """The host's speed, sampled beside the work, and the correction
    that takes it out of a timing.

    This box runs between 1x and 2x slower for tens of seconds at a
    time (other tenants; neither ``process_time`` nor steal shows it),
    which no amount of repeats inside one run averages away.  So a fixed
    kernel that touches nothing of the program (:func:`calib_kernel`) is
    timed every ``EVERY_S`` seconds of a run, and every sample is
    divided by
    the kernel's slow-down at that moment, interpolated between the
    kernel runs on either side.  Timings are therefore reported **at
    reference speed** (kernel = ``REF_S``): on a quiet box that is wall
    time; on a busy one it is what wall time would have been.
    """

    #: The kernel's time on the build box when nothing else runs.
    REF_S = 0.018
    #: Re-time the kernel when the last timing is older than this.
    EVERY_S = 0.35

    def __init__(self) -> None:
        self.at: List[float] = []
        self.kernel_s: List[float] = []

    def calibrate(self) -> None:
        t0 = time.perf_counter()
        calib_kernel()
        t1 = time.perf_counter()
        self.at.append(0.5 * (t0 + t1))
        self.kernel_s.append(t1 - t0)

    def tick(self) -> None:
        """Calibrate if the last calibration has gone stale."""
        if not self.at or time.perf_counter() - self.at[-1] > self.EVERY_S:
            self.calibrate()

    def slowdown(self, at) -> np.ndarray:
        """Host slow-down factor at each time of ``at``."""
        return np.interp(at, self.at, self.kernel_s) / self.REF_S

    def noise(self) -> Dict[str, object]:
        spread = max(self.kernel_s) / min(self.kernel_s)
        return {
            "calib_samples": len(self.kernel_s),
            "calib_ms_p50": round(1e3 * median(self.kernel_s), 3),
            "calib_spread": round(spread, 3),
            "noisy": spread > NOISY_SPREAD,
        }


class Recorder:
    """Per-op samples plus the attempted/failed tally of one run.

    ``samples[phase][op_id]`` is the list of that op's durations, one per
    round, each already divided by the host's slow-down when it ran
    (:class:`Clock`); ``raw`` keeps the undivided wall times.  An op
    fails when it raises, returns a non-COMPLETE status or disagrees
    with the reference digest; a failed op still counts as attempted and
    records no duration.
    """

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock = clock if clock is not None else Clock()
        self._stamped: Dict[str, Dict[int, List[Tuple[float, float]]]] = (
            defaultdict(lambda: defaultdict(list))
        )
        self.samples: Dict[str, Dict[int, List[float]]] = defaultdict(
            lambda: defaultdict(list)
        )
        self.raw: Dict[str, List[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: ``around(phase, op_id)`` is entered around every op and
        #: yields a callable that is handed the op's result; the traced
        #: run hangs its root span and counters here.
        self.around = _unobserved

    def run(self, phase: str, op_id: int, fn: Callable, *args, **kw):
        """Time ``fn`` as a sample of ``phase[op_id]`` and return its
        result; an exception propagates (the probes use this)."""
        self.clock.tick()
        t0 = time.perf_counter()
        result = fn(*args, **kw)
        t1 = time.perf_counter()
        self._stamped[phase][op_id].append((0.5 * (t0 + t1), t1 - t0))
        return result

    def time(self, phase: str, op_id: int, fn: Callable, *args, **kw):
        """Run ``fn`` as one op of the workload; returns its result, or
        ``None`` if it raised (the failure is tallied, not propagated —
        a benchmark run reports its failures, it does not die of
        them)."""
        self.attempted += 1
        try:
            with self.around(phase, op_id) as seen:
                result = self.run(phase, op_id, fn, *args, **kw)
                seen(result)
        except Exception:
            self.fail(f"{phase}[{op_id}] raised:\n{traceback.format_exc()}")
            return None
        return result

    def settle(self) -> None:
        """Calibrate once more and correct every sample recorded since
        the last call (a sample needs a kernel timing on either side)."""
        self.clock.calibrate()
        for phase, ops in self._stamped.items():
            for op_id, stamped in ops.items():
                at, seconds = zip(*stamped)
                self.raw[phase].extend(seconds)
                self.samples[phase][op_id].extend(
                    (np.asarray(seconds) / self.clock.slowdown(at)).tolist())
        self._stamped.clear()

    def fail(self, why: str) -> None:
        """Tally one failed op (already counted as attempted)."""
        self.failed += 1
        if len(self.errors) < _MAX_ERRORS_KEPT:
            self.errors.append(why)

    def check(self, ok: bool, why: str) -> bool:
        if not ok:
            self.fail(why)
        return ok

    # -- estimators (over corrected samples; call settle() first) ------ #

    def op_medians(self, phase: str) -> List[float]:
        """Per-op median over rounds, in op-id order (seconds)."""
        ops = self.samples.get(phase, {})
        return [median(ops[k]) for k in sorted(ops) if ops[k]]

    def all_samples(self, phase: str) -> List[float]:
        ops = self.samples.get(phase, {})
        return [s for k in sorted(ops) for s in ops[k]]

    def n_samples(self, phase: str) -> int:
        return len(self.all_samples(phase))

    def median_of(self, phase: str) -> float:
        """Median over every sample of a phase whose repeats are all the
        same op (a build, a grid, a cold open)."""
        return median(self.all_samples(phase))


def run_rounds(round_fn: Callable[[int], None], seconds: float,
               min_rounds: int, stop_on_odd: bool = True) -> int:
    """Call ``round_fn(r)`` for r = 0, 1, ... until ``seconds`` are used.

    Stops only at an odd count (so every per-op median is a sample and
    never the mean of two) or, for the traced run's untraced/traced
    pairs, only at an even one; at each such count it decides whether
    two more rounds still fit.  Returns the number of rounds run.
    """
    start = time.perf_counter()
    rounds = 0
    while True:
        round_fn(rounds)
        rounds += 1
        elapsed = time.perf_counter() - start
        if (rounds >= min_rounds and rounds % 2 == int(stop_on_odd)
                and elapsed + 2.0 * elapsed / rounds > seconds):
            return rounds


# -- the calibration kernel -------------------------------------------- #

#: Kernel swing (slowest / fastest) above which a run calls itself
#: noisy.  The run is kept; the reader is warned.
NOISY_SPREAD = 1.25

_CALIB_RNG = np.random.default_rng(7)
_CALIB_WIDE = _CALIB_RNG.random((250_000, 6))  # 12 MB: larger than any cache
_CALIB_ROWS = _CALIB_RNG.random((20_000, 4))
_CALIB_VEC = _CALIB_RNG.random(300_000)


def calib_kernel() -> int:
    """About 20 ms of the kinds of work the program does, none of it the
    program's (a change under ``src/`` cannot move it): a masked
    selection over a wide array, a row ``lexsort``, an ``np.sort`` and a
    short interpreter loop.

    It allocates no Python objects to speak of.  An allocation-heavy
    kernel tracked a query pass best in a small test process and worst
    inside the real one: what an allocation costs depends on the state
    of the process's own heap, and (with the collector on) on the size
    of the workload's, neither of which is the host (README.md)."""
    acc = 0
    for i in range(60_000):
        acc += i * i & 7
    wide = _CALIB_WIDE
    picked = wide[(wide[:, 0] < 0.5) & (wide[:, 1] > 0.2)]
    ordered = _CALIB_ROWS[np.lexsort(_CALIB_ROWS.T[::-1])]
    distinct = int((ordered[1:] != ordered[:-1]).any(axis=1).sum())
    np.sort(_CALIB_VEC)
    return acc + picked.shape[0] + distinct


# -- counters and sizes ------------------------------------------------ #

def peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(root, f))
    return total


def provenance(root: str, seed: int) -> Dict[str, object]:
    """Where a number came from: commit, interpreter, numpy, cores."""
    sha: Optional[str] = None
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, "r", encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), "r",
                      encoding="utf-8") as fh:
                sha = fh.read().strip()
        else:
            sha = ref
    except OSError:
        sha = None  # an exported checkout has no .git
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }

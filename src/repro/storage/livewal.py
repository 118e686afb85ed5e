"""Observation write-ahead log for the live index's hot partition.

PR 7's streaming tier keeps the hot partition purely in memory: a crash
loses everything after the last seal, and recovery depends on the
*producer* replaying its stream from the durable watermark — acceptable
when the source is a file, fatal when it is a one-shot sensor stream.
The :class:`LiveWAL` closes that gap at the cheapest possible layer: it
logs **raw observations** ``(t, v)`` — not feature rows — before they
enter the segmenter.  Because the whole pipeline downstream of the
observations is deterministic (global segmenter, global extractor,
bit-for-bit batch ≡ live), replaying the logged suffix through the
ordinary ingest path on reopen reproduces the lost hot partition
exactly, and resume needs **no source replay**.

The file is a framed log of the durability kernel
(:class:`~repro.storage.durable.FramedLog`, docs/durability.md §2)
behind the header ``8s magic "SDLWAL02"``, with two record kinds::

    OBS  arg = n observations   payload = n x 16 bytes of interleaved
                                (t, v) float64 pairs
    GAP  arg = 0                payload = 8 bytes float64 — the time of
                                the last observation before ``mark_gap``
                                (NaN when the gap preceded any)

Every frame is one unbuffered ``write``, so a torn frame is always a
prefix of one record; recovery keeps the intact prefix the kernel
decodes and truncates the rest — exactly the un-fsynced tail, never
committed data.

Durability contract: ``fsync`` is batched (every ``sync_obs``
observations, on gap frames, and on close), so a power cut loses at
most the observations appended since the last sync.  At each seal the
log is **rotated** by the kernel's atomic install (the frames past the
new watermark go to a temp file, fsync, rename) —
rotation is pure garbage collection: stale frames are skipped on replay
by the resume watermark, so a crash at any point of the rotation is
safe.  All file I/O goes through the file facade
(:class:`~repro.storage.durable.RealFS`), so the disk-fault injection
harness can crash, tear, or ENOSPC any counted operation.
"""

from __future__ import annotations

import logging
import math
import os
import struct
from typing import List, Optional, Tuple, Union

import numpy as np

from ..errors import StorageError
from ..obs.metrics import REGISTRY
from .durable import (
    RECORD,
    TEARDOWN_ERRORS,
    FramedLog,
    RealFS,
    atomic_replace,
    check_header,
    read_records,
    write_log,
)

__all__ = ["LiveWAL", "WAL_NAME"]

logger = logging.getLogger("repro.storage")

#: The hot-partition WAL's file name inside a partition directory.
WAL_NAME = "hot.wal"

_MAGIC = b"SDLWAL02"
_OBS = 1
_GAP = 2
_OBS_BYTES = 16  # one float64 (t, v) pair
_GAP_PAYLOAD = struct.Struct("<d")

_WAL_FRAMES = REGISTRY.counter(
    "repro_live_wal_frames_total",
    "Observation/gap frames appended to hot-partition WALs",
    always_on=True,
)
_WAL_OBSERVATIONS = REGISTRY.counter(
    "repro_live_wal_observations_total",
    "Observations made durable through hot-partition WALs",
    always_on=True,
)
_WAL_SYNCS = REGISTRY.counter(
    "repro_live_wal_syncs_total",
    "fsync barriers issued by hot-partition WALs",
    always_on=True,
)
_WAL_REPLAYED = REGISTRY.counter(
    "repro_live_wal_replayed_observations_total",
    "Observations replayed from hot-partition WALs on open",
    always_on=True,
)
_WAL_REWRITES = REGISTRY.counter(
    "repro_live_wal_rewrites_total",
    "Atomic WAL rotations performed at partition seals",
    always_on=True,
)
_WAL_TORN_BYTES = REGISTRY.counter(
    "repro_live_wal_torn_bytes_total",
    "Bytes of torn/garbage WAL tail discarded during recovery",
    always_on=True,
)

#: One recovered frame: ``("obs", ts, vs)`` or ``("gap", t)``.
Frame = Union[
    Tuple[str, np.ndarray, np.ndarray],
    Tuple[str, float],
]


def _obs_payload(ts: np.ndarray, vs: np.ndarray) -> bytes:
    arr = np.empty((ts.shape[0], 2), dtype="<f8")
    arr[:, 0] = ts
    arr[:, 1] = vs
    return arr.tobytes()


def _frames(fh, start: int) -> Tuple[List[Frame], int]:
    """Decode the intact OBS/GAP frames of ``fh`` from ``start``;
    returns them and the offset just past the last one."""
    frames: List[Frame] = []
    end = start
    for offset, kind, arg, payload in read_records(fh, start):
        if kind == _OBS and len(payload) == arg * _OBS_BYTES:
            arr = np.frombuffer(payload, dtype="<f8").reshape(arg, 2)
            frames.append(
                ("obs",
                 np.ascontiguousarray(arr[:, 0]),
                 np.ascontiguousarray(arr[:, 1]))
            )
        elif kind == _GAP and len(payload) == _GAP_PAYLOAD.size:
            frames.append(("gap", _GAP_PAYLOAD.unpack(payload)[0]))
        else:
            break  # a record no writer of this format produces
        end = offset + RECORD.size + len(payload)
    return frames, end


class LiveWAL:
    """Framed, checksummed, replay-on-open observation log.

    Parameters
    ----------
    path:
        Log file; created (with a fresh header) if missing, recovered
        (torn tail truncated) if present.
    sync_obs:
        fsync once at least this many observations accumulated since the
        last barrier (plus on gaps and close).
    fs:
        File facade (:class:`~repro.storage.durable.RealFS` by default)
        so the fault harness can interpose on every file op.
    """

    def __init__(
        self,
        path: str,
        sync_obs: int = 4096,
        fs: Optional[RealFS] = None,
    ) -> None:
        if sync_obs < 1:
            raise StorageError("sync_obs must be >= 1")
        self.path = path
        self.sync_obs = int(sync_obs)
        self._unsynced_obs = 0
        self.n_frames = 0
        self.n_observations = 0
        #: Torn/garbage tail bytes discarded by the last recovery.
        self.discarded_bytes = 0
        self._recovered: List[Frame] = []
        self._log = FramedLog(fs or RealFS(), path, _MAGIC)
        size = self._log.size_at_open
        if self._log.torn_header:
            logger.warning(
                "live WAL recovery: %s has a torn header (%d bytes), "
                "reinitializing", path, size,
            )
            self.discarded_bytes = size
            if size:
                _WAL_TORN_BYTES.inc(size)
        elif size:
            self._recover(size)

    def _recover(self, size: int) -> None:
        frames, good_end = _frames(self._log.file, len(_MAGIC))
        discarded = size - good_end
        if discarded > 0:
            logger.warning(
                "live WAL recovery: %s discarding %d byte(s) of torn "
                "tail after offset %d", self.path, discarded, good_end,
            )
            self._log.truncate(good_end)
            _WAL_TORN_BYTES.inc(discarded)
        self.discarded_bytes = discarded
        self._recovered = frames
        self._log.end = good_end
        self.n_frames = len(frames)
        self.n_observations = _n_obs(frames)

    def replay_frames(self) -> List[Frame]:
        """The intact frames recovered at open, oldest first."""
        return list(self._recovered)

    # ------------------------------------------------------------------ #
    # logging
    # ------------------------------------------------------------------ #

    def append(self, ts: np.ndarray, vs: np.ndarray) -> None:
        """Log one OBS frame (a single write; fsync per the batching
        policy).  Must be called *before* the observations reach the
        segmenter — that is what makes it a write-*ahead* log."""
        ts = np.ascontiguousarray(ts, dtype=float)
        vs = np.ascontiguousarray(vs, dtype=float)
        n = int(ts.shape[0])
        if n == 0:
            return
        self._log.append(_OBS, n, _obs_payload(ts, vs))
        self.n_frames += 1
        self.n_observations += n
        self._unsynced_obs += n
        _WAL_FRAMES.inc()
        _WAL_OBSERVATIONS.inc(n)
        if self._unsynced_obs >= self.sync_obs:
            self.sync()

    def log_gap(self, t: Optional[float]) -> None:
        """Log a GAP frame (episode break) and sync immediately —
        gaps are rare and an episode boundary is worth a barrier."""
        payload = _GAP_PAYLOAD.pack(float(t) if t is not None else math.nan)
        self._log.append(_GAP, 0, payload)
        self.n_frames += 1
        self._unsynced_obs += 1
        _WAL_FRAMES.inc()
        self.sync()

    def sync(self) -> None:
        """Issue an fsync barrier if anything is un-synced."""
        if self._unsynced_obs == 0:
            return
        self._log.sync()
        self._unsynced_obs = 0
        _WAL_SYNCS.inc()

    # ------------------------------------------------------------------ #
    # rotation / lifecycle
    # ------------------------------------------------------------------ #

    def rewrite(self, watermark: float) -> None:
        """Atomically drop every frame covered by ``watermark``.

        Called after a seal installs its manifest: observations at or
        before the watermark are durable in sealed partitions, so their
        frames are garbage.  Frames straddling the watermark are
        rewritten with only their uncovered suffix.  The rotation is the
        kernel's :func:`~repro.storage.durable.atomic_replace`, directory
        fsync included; a crash at any point leaves either the old or the
        new log, a power cut after it cannot bring the old one back, and
        replay of
        stale frames is idempotent (the resume watermark skips them) —
        so rotation is never on the correctness path, only the space
        path.  When the install fails the old log stays open and in use:
        GC can retry at the next seal.
        """
        frames, _ = _frames(self._log.file, len(_MAGIC))
        kept = []
        for frame in frames:
            if frame[0] == "obs":
                ts, vs = frame[1], frame[2]
                start = int(np.searchsorted(ts, watermark, side="right"))
                if start < ts.shape[0]:
                    kept.append((_OBS, ts.shape[0] - start,
                                 _obs_payload(ts[start:], vs[start:])))
            # keep gaps at or past the watermark: a gap logged exactly
            # at the seal point still resets pairing history on replay.
            # NaN (a gap before any observation) compares False and is
            # dropped — sealed observations postdate it.
            elif frame[1] >= watermark:
                kept.append((_GAP, 0, _GAP_PAYLOAD.pack(frame[1])))
        atomic_replace(
            self._log.fs, self.path, lambda fh: write_log(fh, _MAGIC, kept)
        )
        self._log.reopen()
        self.n_frames = len(kept)
        self.n_observations = sum(arg for _kind, arg, _p in kept)
        self._unsynced_obs = 0
        _WAL_REWRITES.inc()

    def reset(self) -> None:
        """Empty the log (its observations are durable elsewhere)."""
        self._log.truncate(len(_MAGIC))
        self.n_frames = 0
        self.n_observations = 0
        self._unsynced_obs = 0
        self._recovered = []

    def mark_replayed(self, n_observations: int) -> None:
        """Account ``n_observations`` as replayed (metrics hook)."""
        if n_observations:
            _WAL_REPLAYED.inc(n_observations)

    @property
    def size_bytes(self) -> int:
        return self._log.end

    def stats(self) -> dict:
        return {
            "path": self.path,
            "frames": self.n_frames,
            "observations": self.n_observations,
            "bytes": self._log.end,
            "sync_obs": self.sync_obs,
        }

    def close(self, delete: bool = False) -> None:
        """Sync (best effort) and close; ``delete=True`` on finalize."""
        try:
            self.sync()
        except TEARDOWN_ERRORS:
            pass  # teardown after a (simulated) crash stays silent
        self._log.close(delete)

    # ------------------------------------------------------------------ #
    # read-only inspection (fsck)
    # ------------------------------------------------------------------ #

    @classmethod
    def scan(cls, path: str) -> dict:
        """Parse ``path`` without mutating it (the ``segdiff fsck``
        probe).  Raises :class:`StorageError` on a wrong magic."""
        with open(path, "rb") as fh:
            size = fh.seek(0, os.SEEK_END)
            if not check_header(fh, _MAGIC, path):
                return {
                    "frames": 0, "observations": 0, "gaps": 0,
                    "torn_bytes": size, "header_ok": False,
                }
            frames, good_end = _frames(fh, len(_MAGIC))
        return {
            "frames": len(frames),
            "observations": _n_obs(frames),
            "gaps": sum(1 for f in frames if f[0] == "gap"),
            "torn_bytes": size - good_end,
            "header_ok": True,
        }


def _n_obs(frames: List[Frame]) -> int:
    return sum(f[1].shape[0] for f in frames if f[0] == "obs")

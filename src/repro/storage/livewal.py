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

File layout (little-endian), modeled on ``storage/minidb/wal.py``::

    header:  8s magic "SDLWAL01"
    frame:   u8 kind | u32 count | u32 crc32(payload) | payload
      kind=1 OBS:  count = n observations, payload = n x 16 bytes of
                   interleaved (t, v) float64 pairs
      kind=2 GAP:  count = 0, payload = 8 bytes float64 — the time of
                   the last observation before ``mark_gap`` (NaN when
                   the gap preceded any observation)

Every frame is written with a **single** unbuffered ``write`` call, so a
torn frame is always a prefix of one record; recovery scans from the
header and truncates at the first short read, CRC mismatch, or unknown
kind — exactly the un-fsynced tail, never committed data.

Durability contract: ``fsync`` is batched (every ``sync_obs``
observations, on gap frames, on close, and before a rotation), so a
power cut loses at most the observations appended since the last sync.
At each seal the log is **rotated atomically** (rewrite the frames past
the new watermark into a temp file, fsync, ``os.replace``) — rotation
is pure garbage collection: stale frames are skipped on replay by the
resume watermark, so a crash at any point of the rotation is safe.

All file I/O goes through a filesystem facade
(:class:`~repro.storage.faults.RealFS`), so the disk-fault injection
harness can crash, tear, or ENOSPC any counted operation.
"""

from __future__ import annotations

import logging
import math
import os
import struct
import zlib
from typing import List, Optional, Tuple, Union

import numpy as np

from ..errors import StorageError
from ..obs.metrics import REGISTRY
from .faults import FaultInjected, RealFS

__all__ = ["LiveWAL", "WAL_NAME"]

logger = logging.getLogger("repro.storage")

#: The hot-partition WAL's file name inside a partition directory.
WAL_NAME = "hot.wal"

_MAGIC = b"SDLWAL01"
_HEADER = struct.Struct("<8s")
_RECORD = struct.Struct("<BII")  # kind, count, crc32(payload)
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


def _fsync_fh(fh) -> None:
    sync = getattr(fh, "fsync", None)
    if sync is not None:
        sync()
    else:
        os.fsync(fh.fileno())


class LiveWAL:
    """Framed, checksummed, replay-on-open observation log.

    Parameters
    ----------
    path:
        Log file; created (with a fresh header) if missing, recovered
        (torn tail truncated) if present.
    sync_obs:
        fsync once at least this many observations accumulated since the
        last barrier (plus on gaps, close, and rotation).
    fs:
        Filesystem facade (:class:`~repro.storage.faults.RealFS` by
        default) so the fault harness can interpose on every file op.
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
        self._fs = fs or RealFS()
        self._unsynced_obs = 0
        self.n_frames = 0
        self.n_observations = 0
        #: Torn/garbage tail bytes discarded by the last recovery.
        self.discarded_bytes = 0
        self._recovered: List[Frame] = []
        fresh = not os.path.exists(path)
        if fresh:
            self._fs.open(path, "xb").close()
        self._file = self._fs.open(path, "r+b")
        if fresh:
            self._file.write(_HEADER.pack(_MAGIC))
            self._end = _HEADER.size
        else:
            self._recover()

    # ------------------------------------------------------------------ #
    # recovery
    # ------------------------------------------------------------------ #

    @staticmethod
    def _scan_frames(fh) -> Tuple[List[Frame], int, int, bool]:
        """Parse ``fh`` from the start.

        Returns ``(frames, good_end, file_size, header_ok)`` where
        ``good_end`` is the offset just past the last intact frame.
        ``header_ok`` is False for a short/absent header (reinitialize)
        — a *wrong* header raises :class:`StorageError` instead.
        """
        fh.seek(0, os.SEEK_END)
        file_size = fh.tell()
        fh.seek(0)
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            return [], 0, file_size, False
        (magic,) = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise StorageError("not a live-index WAL file")
        pos = _HEADER.size
        frames: List[Frame] = []
        while True:
            rec = fh.read(_RECORD.size)
            if len(rec) < _RECORD.size:
                break
            kind, count, crc = _RECORD.unpack(rec)
            if kind == _OBS:
                need = count * _OBS_BYTES
            elif kind == _GAP:
                need = _GAP_PAYLOAD.size
            else:
                break  # garbage
            if need > file_size - pos - _RECORD.size:
                break  # torn frame: the header claims more than the file holds
            payload = fh.read(need)
            if len(payload) < need or zlib.crc32(payload) != crc:
                break  # torn frame
            if kind == _OBS:
                arr = np.frombuffer(payload, dtype="<f8").reshape(count, 2)
                frames.append(
                    ("obs",
                     np.ascontiguousarray(arr[:, 0]),
                     np.ascontiguousarray(arr[:, 1]))
                )
            else:
                frames.append(("gap", _GAP_PAYLOAD.unpack(payload)[0]))
            pos += _RECORD.size + need
        return frames, pos, file_size, True

    def _recover(self) -> None:
        try:
            frames, good_end, file_size, header_ok = self._scan_frames(
                self._file
            )
        except StorageError as exc:
            raise StorageError(f"{self.path}: {exc}") from exc
        if not header_ok:
            logger.warning(
                "live WAL recovery: %s has a torn header (%d bytes), "
                "reinitializing", self.path, file_size,
            )
            self._file.seek(0)
            self._file.truncate(0)
            self._file.write(_HEADER.pack(_MAGIC))
            self._end = _HEADER.size
            self.discarded_bytes = file_size
            if file_size:
                _WAL_TORN_BYTES.inc(file_size)
            return
        discarded = file_size - good_end
        if discarded > 0:
            logger.warning(
                "live WAL recovery: %s discarding %d byte(s) of torn "
                "tail after offset %d", self.path, discarded, good_end,
            )
            self._file.truncate(good_end)
            _WAL_TORN_BYTES.inc(discarded)
        self.discarded_bytes = discarded
        self._recovered = frames
        self._end = good_end
        self.n_frames = len(frames)
        self.n_observations = sum(
            f[1].shape[0] for f in frames if f[0] == "obs"
        )

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
        payload_arr = np.empty((n, 2), dtype="<f8")
        payload_arr[:, 0] = ts
        payload_arr[:, 1] = vs
        payload = payload_arr.tobytes()
        self._file.seek(self._end)
        self._file.write(
            _RECORD.pack(_OBS, n, zlib.crc32(payload)) + payload
        )
        self._end += _RECORD.size + len(payload)
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
        payload = _GAP_PAYLOAD.pack(
            float(t) if t is not None else math.nan
        )
        self._file.seek(self._end)
        self._file.write(
            _RECORD.pack(_GAP, 0, zlib.crc32(payload)) + payload
        )
        self._end += _RECORD.size + len(payload)
        self.n_frames += 1
        self._unsynced_obs += 1
        _WAL_FRAMES.inc()
        self.sync()

    def sync(self) -> None:
        """Issue an fsync barrier if anything is un-synced."""
        if self._unsynced_obs == 0:
            return
        _fsync_fh(self._file)
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
        rewritten with only their uncovered suffix.  The rotation is
        temp-file + fsync + ``os.replace``; a crash at any point leaves
        either the old or the new log, and replay of stale frames is
        idempotent (the resume watermark skips them) — so rotation is
        never on the correctness path, only the space path.
        """
        frames, good_end, _, header_ok = self._scan_frames(self._file)
        if not header_ok:  # pragma: no cover - header written at create
            raise StorageError(f"{self.path}: torn header during rewrite")
        tmp = self.path + ".tmp"
        kept_frames = 0
        kept_obs = 0
        try:
            out = self._fs.open(tmp, "wb")
            try:
                out.write(_HEADER.pack(_MAGIC))
                for frame in frames:
                    if frame[0] == "obs":
                        ts, vs = frame[1], frame[2]
                        start = int(
                            np.searchsorted(ts, watermark, side="right")
                        )
                        if start >= ts.shape[0]:
                            continue
                        ts, vs = ts[start:], vs[start:]
                        arr = np.empty((ts.shape[0], 2), dtype="<f8")
                        arr[:, 0] = ts
                        arr[:, 1] = vs
                        payload = arr.tobytes()
                        out.write(
                            _RECORD.pack(
                                _OBS, ts.shape[0], zlib.crc32(payload)
                            ) + payload
                        )
                        kept_obs += int(ts.shape[0])
                    else:
                        # keep gaps at or past the watermark: a gap
                        # logged exactly at the seal point still resets
                        # pairing history on replay.  NaN (a gap before
                        # any observation) compares False and is
                        # dropped — sealed observations postdate it.
                        t = frame[1]
                        if not t >= watermark:
                            continue
                        payload = _GAP_PAYLOAD.pack(t)
                        out.write(
                            _RECORD.pack(_GAP, 0, zlib.crc32(payload))
                            + payload
                        )
                    kept_frames += 1
                _fsync_fh(out)
            finally:
                out.close()
            self._file.close()
            try:
                self._fs.replace(tmp, self.path)
            except FaultInjected:
                raise
            except OSError:
                # rotation failed post-write: reopen the intact old log
                # and keep running — GC can retry at the next seal
                self._file = self._fs.open(self.path, "r+b")
                self._end = good_end
                raise
        except BaseException as exc:
            if not isinstance(exc, FaultInjected):
                try:
                    os.remove(tmp)
                except OSError:
                    pass
            raise
        self._file = self._fs.open(self.path, "r+b")
        self._file.seek(0, os.SEEK_END)
        self._end = self._file.tell()
        self.n_frames = kept_frames
        self.n_observations = kept_obs
        self._unsynced_obs = 0
        _WAL_REWRITES.inc()

    def reset(self) -> None:
        """Empty the log (its observations are durable elsewhere)."""
        self._file.truncate(_HEADER.size)
        self._end = _HEADER.size
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
        return self._end

    def stats(self) -> dict:
        return {
            "path": self.path,
            "frames": self.n_frames,
            "observations": self.n_observations,
            "bytes": self._end,
            "sync_obs": self.sync_obs,
        }

    def close(self, delete: bool = False) -> None:
        """Sync (best effort) and close; ``delete=True`` on finalize."""
        try:
            try:
                self.sync()
            except Exception:
                pass  # teardown after a (simulated) crash stays silent
            self._file.close()
        finally:
            if delete and os.path.exists(self.path):
                os.unlink(self.path)

    # ------------------------------------------------------------------ #
    # read-only inspection (fsck)
    # ------------------------------------------------------------------ #

    @classmethod
    def scan(cls, path: str) -> dict:
        """Parse ``path`` without mutating it (the ``segdiff fsck``
        probe).  Raises :class:`StorageError` on a wrong magic."""
        with open(path, "rb") as fh:
            frames, good_end, file_size, header_ok = cls._scan_frames(fh)
        if not header_ok:
            return {
                "frames": 0, "observations": 0, "gaps": 0,
                "torn_bytes": file_size, "header_ok": False,
            }
        return {
            "frames": len(frames),
            "observations": sum(
                f[1].shape[0] for f in frames if f[0] == "obs"
            ),
            "gaps": sum(1 for f in frames if f[0] == "gap"),
            "torn_bytes": file_size - good_end,
            "header_ok": True,
        }

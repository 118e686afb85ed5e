"""Page file with an LRU buffer pool, page checksums, and a WAL.

All MiniDB structures live in fixed-size pages of one file.  The pager is
the only component that touches the file, so its counters account for
every logical and physical I/O in the system:

* ``hits`` / ``misses`` — buffer-pool lookups;
* ``disk_reads`` / ``disk_writes`` — actual file operations (main file
  and write-ahead log combined).

``drop_cache()`` empties the pool (writing back dirty pages first), which
is the exact, deterministic version of the paper's between-query OS-cache
flush.

Durability (docs/durability.md):

* every page reserves its last 4 bytes for a CRC32 **trailer**, stamped
  on each write to the main file and verified on each read from it —
  callers may only use the first ``PAGE_CAPACITY`` bytes;
* dirty pages are appended to ``<path>.wal`` instead of being written in
  place; :meth:`commit` seals them atomically and :meth:`flush`
  transfers committed frames into the main file.  Opening a file with a
  leftover WAL replays its committed prefix first.  The WAL is created
  on the first write-back: a file that is only read never grows one.
"""

from __future__ import annotations

import itertools
import logging
import os
import struct
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ...errors import CorruptionError, InvalidParameterError, StorageError
from ...obs.metrics import REGISTRY
from ..durable import RealFS
from .wal import WriteAheadLog

__all__ = ["PAGE_SIZE", "PAGE_CAPACITY", "Pager", "PagerStats", "stamp"]

logger = logging.getLogger("repro.storage")

PAGE_SIZE = 4096
_TRAILER = struct.Struct("<I")  # crc32 of the first PAGE_CAPACITY bytes
#: Bytes of a page available to callers (the trailer is the pager's).
PAGE_CAPACITY = PAGE_SIZE - _TRAILER.size


def stamp(data) -> bytes:
    """``data`` (one page) with its CRC32 trailer filled in."""
    buf = bytearray(data)
    _TRAILER.pack_into(buf, PAGE_CAPACITY, zlib.crc32(bytes(buf[:PAGE_CAPACITY])))
    return bytes(buf)


@dataclass
class PagerStats:
    """Cumulative buffer-pool and disk counters."""

    hits: int = 0
    misses: int = 0
    disk_reads: int = 0
    disk_writes: int = 0

    def snapshot(self) -> "PagerStats":
        return PagerStats(self.hits, self.misses, self.disk_reads, self.disk_writes)

    def delta(self, earlier: "PagerStats") -> "PagerStats":
        """Counters accumulated since ``earlier``."""
        return PagerStats(
            self.hits - earlier.hits,
            self.misses - earlier.misses,
            self.disk_reads - earlier.disk_reads,
            self.disk_writes - earlier.disk_writes,
        )

    @property
    def page_reads(self) -> int:
        """Logical page reads (hits + misses) — the cost unit the
        page-cost experiment reports."""
        return self.hits + self.misses


#: Distinguishes each pager's registry series within one process.
_pager_seq = itertools.count(1)

#: Process-wide durability counters (always on: corruption and replay
#: must be countable even with metrics disabled).
CHECKSUM_FAILURES = REGISTRY.counter(
    "repro_minidb_checksum_failures_total",
    "Page or WAL-frame CRC32 verification failures",
    always_on=True,
)
_WAL_REPLAYS = REGISTRY.counter(
    "repro_minidb_wal_replays_total",
    "WAL recovery replays performed when (re)opening a page file",
    always_on=True,
)
_WAL_FRAMES_REPLAYED = REGISTRY.counter(
    "repro_minidb_wal_frames_replayed_total",
    "Committed WAL frames transferred into main files during recovery",
    always_on=True,
)


class Pager:
    """Fixed-size pages in one file, behind an LRU pool.

    Parameters
    ----------
    path:
        Backing file; created if missing.  A sibling ``<path>.wal`` file,
        created on the first write-back, holds in-flight transactions;
        it is replayed (committed prefix only) when reopening after a
        crash and removed on clean :meth:`close`.
    cache_pages:
        Buffer-pool capacity in pages (>= 1).
    fsync:
        Issue real ``fsync`` barriers at commit/flush points.
    fs:
        File facade for both files (:class:`~repro.storage.durable.RealFS`
        by default), so the fault harness (:mod:`repro.storage.faults`)
        can fail, tear, or freeze any I/O.
    """

    def __init__(
        self,
        path: str,
        cache_pages: int = 256,
        fsync: bool = False,
        fs: Optional[RealFS] = None,
    ) -> None:
        if cache_pages < 1:
            raise InvalidParameterError("cache_pages must be >= 1")
        self.path = path
        self.cache_pages = cache_pages
        self.fsync = fsync
        self._fs = fs or RealFS()
        # counters live in the metrics registry (one labeled series per
        # pager instance); ``self.stats`` synthesizes PagerStats from
        # them.  always_on: these double as functional state — EXPLAIN
        # deltas and the page-cost experiment read them.
        labels = {"backend": "minidb", "pager": str(next(_pager_seq))}
        self._c_hits = REGISTRY.counter(
            "repro_minidb_pool_hits_total",
            "Buffer-pool lookups served from memory", labels,
            always_on=True,
        )
        self._c_misses = REGISTRY.counter(
            "repro_minidb_pool_misses_total",
            "Buffer-pool lookups that had to read the file", labels,
            always_on=True,
        )
        self._c_disk_reads = REGISTRY.counter(
            "repro_minidb_disk_reads_total",
            "Physical page reads (main file or WAL)", labels,
            always_on=True,
        )
        self._c_disk_writes = REGISTRY.counter(
            "repro_minidb_disk_writes_total",
            "Physical page writes (main file or WAL)", labels,
            always_on=True,
        )
        # "r+b" (not "a+b"!) — append mode would force every write-back
        # to the end of the file regardless of the seek position
        if not os.path.exists(path):
            self._fs.open(path, "xb").close()
        # the main file is buffered (pages are read back often); the WAL
        # is unbuffered, one OS write per record
        self._file = self._fs.open(path, "r+b", buffering=-1)
        self.wal: Optional[WriteAheadLog] = None
        try:
            if os.path.exists(path + ".wal"):
                self._open_wal()
            size = self._file.seek(0, os.SEEK_END)
            if size % PAGE_SIZE != 0:
                # a torn append at the end of the main file: recoverable
                # when the WAL holds the page's committed image
                if self.wal is None or self.wal.is_empty:
                    raise StorageError(
                        f"{path}: size {size} is not a multiple of the "
                        "page size"
                    )
                size -= size % PAGE_SIZE
                self._file.truncate(size)
            self._n_pages = size // PAGE_SIZE
            if self.wal is not None:
                self._n_pages = self.wal.page_bound(self._n_pages)
        except BaseException:
            self._file.close()
            if self.wal is not None:
                self.wal.close()
            raise
        # page_id -> bytearray; OrderedDict used as the LRU queue
        self._pool: "OrderedDict[int, bytearray]" = OrderedDict()
        self._dirty: set = set()
        self._closed = False
        self._stable_n_pages = self._n_pages
        if self.wal is not None and not self.wal.is_empty:
            self._replay_wal()

    def _open_wal(self) -> WriteAheadLog:
        if self.wal is None:
            self.wal = WriteAheadLog(
                self.path + ".wal", PAGE_SIZE, fsync=self.fsync, fs=self._fs
            )
        return self.wal

    def _replay_wal(self) -> None:
        """Transfer the committed WAL frames a crash left behind."""
        logger.info(
            "WAL replay: transferring %d committed frame(s) into %s",
            len(self.wal.committed_pages()), self.path,
        )
        pages = self._transfer()
        _WAL_REPLAYS.inc()
        _WAL_FRAMES_REPLAYED.inc(pages)
        from ...obs import recorder as flight

        flight.record(
            "wal_replay", os.path.basename(self.path),
            frames=pages,
        )

    # ------------------------------------------------------------------ #
    # allocation
    # ------------------------------------------------------------------ #

    @property
    def n_pages(self) -> int:
        """Pages allocated so far."""
        return self._n_pages

    @property
    def stats(self) -> PagerStats:
        """Point-in-time :class:`PagerStats` read from this pager's
        registry counters.  Each access returns a fresh, immutable-by-
        convention snapshot, so ``stats`` / ``stats.delta(earlier)``
        arithmetic is race-free even while other threads keep counting.
        """
        return PagerStats(
            hits=self._c_hits.value,
            misses=self._c_misses.value,
            disk_reads=self._c_disk_reads.value,
            disk_writes=self._c_disk_writes.value,
        )

    def allocate(self) -> int:
        """Allocate a fresh zeroed page; returns its page id."""
        self._check_open()
        page_id = self._n_pages
        self._n_pages += 1
        self._install(page_id, bytearray(PAGE_SIZE))
        self._dirty.add(page_id)
        return page_id

    # ------------------------------------------------------------------ #
    # read / write
    # ------------------------------------------------------------------ #

    def read(self, page_id: int) -> bytes:
        """Page contents (immutable view for callers)."""
        return bytes(self._fetch(page_id))

    def write(self, page_id: int, data: bytes) -> None:
        """Replace a page's contents (must be exactly one page).

        Only the first :data:`PAGE_CAPACITY` bytes belong to the caller;
        the trailer is overwritten with the checksum on disk writes.
        """
        self._check_open()
        if len(data) != PAGE_SIZE:
            raise InvalidParameterError(
                f"page write must be exactly {PAGE_SIZE} bytes, got {len(data)}"
            )
        self._check_page_id(page_id)
        if page_id in self._pool:
            self._pool[page_id][:] = data
            self._pool.move_to_end(page_id)
        else:
            self._install(page_id, bytearray(data))
        self._dirty.add(page_id)

    def note_cached_reads(self, n: int) -> None:
        """Account ``n`` logical page reads served from an
        already-materialized columnar view or a batched page decode.

        The logical cost ledger (``page_reads = hits + misses``) counts
        one read per serve, exactly as a row-at-a-time reader touching a
        resident page would; the physical bytes were read once when the
        block was built.
        """
        self._check_open()
        if n > 0:
            self._c_hits.inc(n)

    def note_view_read(self, page_id: int) -> None:
        """Account one logical page read whose bytes came from an mmap
        of the main file (columnar view build): a pool hit when the page
        is resident, otherwise a miss plus a physical read — the same
        ledger a pool-routed read of that page would produce.  The page
        is *not* installed into the pool (the view bypasses it on
        purpose, so big chain walks cannot evict hot index pages).
        """
        self._check_open()
        if page_id in self._pool:
            self._c_hits.inc()
        else:
            self._c_misses.inc()
            self._c_disk_reads.inc()

    def _fetch(self, page_id: int) -> bytearray:
        self._check_open()
        self._check_page_id(page_id)
        if page_id in self._pool:
            self._c_hits.inc()
            self._pool.move_to_end(page_id)
            return self._pool[page_id]
        self._c_misses.inc()
        self._c_disk_reads.inc()
        if self.wal is not None and page_id in self.wal:
            data = bytearray(self.wal.read(page_id))
        else:
            self._file.seek(page_id * PAGE_SIZE)
            data = bytearray(self._file.read(PAGE_SIZE))
            if len(data) < PAGE_SIZE:  # allocated but never evicted/written
                data.extend(b"\x00" * (PAGE_SIZE - len(data)))
            self._verify(page_id, data)
        self._install(page_id, data)
        return data

    def _install(self, page_id: int, data: bytearray) -> None:
        self._pool[page_id] = data
        self._pool.move_to_end(page_id)
        while len(self._pool) > self.cache_pages:
            victim, victim_data = self._pool.popitem(last=False)
            if victim in self._dirty:
                self._write_back(victim, victim_data)

    def _write_back(self, page_id: int, data: bytearray) -> None:
        self._c_disk_writes.inc()
        self._open_wal().append(page_id, bytes(data))
        self._dirty.discard(page_id)

    def _write_main(self, page_id: int, data) -> None:
        self._file.seek(page_id * PAGE_SIZE)
        self._file.write(stamp(data))

    # ------------------------------------------------------------------ #
    # checksums
    # ------------------------------------------------------------------ #

    def _verify(self, page_id: int, data: bytearray) -> None:
        if not any(data):
            return  # a hole / never-written page: all zeros is valid
        (stored,) = _TRAILER.unpack_from(data, PAGE_CAPACITY)
        actual = zlib.crc32(bytes(data[:PAGE_CAPACITY]))
        if stored != actual:
            CHECKSUM_FAILURES.inc()
            logger.error(
                "checksum mismatch: file=%s page=%d stored=%#010x "
                "computed=%#010x", self.path, page_id, stored, actual,
            )
            raise CorruptionError(
                f"{self.path}: page {page_id} checksum mismatch "
                f"(stored {stored:#010x}, computed {actual:#010x})"
            )

    # ------------------------------------------------------------------ #
    # transactions
    # ------------------------------------------------------------------ #

    def commit(self) -> None:
        """Make everything written so far durable and atomic: append
        every dirty pool page as a frame and seal the batch with a
        commit record."""
        self._check_open()
        for page_id in sorted(self._dirty):
            if page_id in self._pool:
                self._write_back(page_id, self._pool[page_id])
        self._dirty.clear()
        if self.wal is not None:
            self.wal.commit()
        self._stable_n_pages = self._n_pages

    def rollback(self) -> None:
        """Discard all uncommitted page changes (pool and WAL tail)."""
        self._check_open()
        if self.wal is not None:
            self.wal.rollback()
        # drop the pool wholesale: any page may hold uncommitted bytes
        self._pool.clear()
        self._dirty.clear()
        self._n_pages = self._stable_n_pages

    # ------------------------------------------------------------------ #
    # cache control
    # ------------------------------------------------------------------ #

    def flush(self) -> None:
        """Commit, then transfer committed WAL frames to the main file
        (pool keeps its contents)."""
        self._check_open()
        if not self.has_uncommitted:
            return  # nothing to persist
        self.commit()
        self._c_disk_writes.inc(self._transfer())

    def _transfer(self) -> int:
        """Copy every committed WAL frame into the main file, sync it,
        then empty the WAL (idempotent: the WAL is only truncated after
        the main file is safely updated).  Returns the pages copied."""
        pages = self.wal.committed_pages()
        for page_id in pages:
            self._write_main(page_id, self.wal.read(page_id))
        self._file.flush()
        if self.fsync:
            self._fs.fsync(self._file)
        self.wal.reset()
        return len(pages)

    @property
    def has_uncommitted(self) -> bool:
        """True when dirty pool pages or unsealed WAL frames exist."""
        return bool(self._dirty) or (
            self.wal is not None and not self.wal.is_empty
        )

    def drop_cache(self) -> None:
        """Flush, then empty the buffer pool — the exact 'cold cache'."""
        self.flush()
        self._pool.clear()

    def close(self) -> None:
        if self._closed:
            return
        try:
            self.flush()
            clean = True
        finally:
            self._closed = True
            self._file.close()
            self._pool.clear()
            self._dirty.clear()
        # after a clean flush the WAL holds nothing: remove it so a
        # closed database is exactly one self-contained file
        if self.wal is not None:
            self.wal.close(delete=clean)

    def __enter__(self) -> "Pager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("pager is closed")

    def _check_page_id(self, page_id: int) -> None:
        if not (0 <= page_id < self._n_pages):
            raise InvalidParameterError(
                f"page id {page_id} out of range [0, {self._n_pages})"
            )

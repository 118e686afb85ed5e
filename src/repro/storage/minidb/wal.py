"""Physical write-ahead log for the MiniDB pager.

The WAL makes multi-page operations atomic: instead of updating the main
page file in place, the pager appends **after-images** of dirty pages to
``<path>.wal`` and seals each batch with a commit record.  Only committed
frames are ever copied back into the main file (a *checkpoint transfer*),
so a crash at any instant leaves one of two recoverable states:

* the main file untouched plus a WAL whose committed prefix replays the
  transaction, or
* the main file partially/fully updated plus the same WAL — replay is
  idempotent.

The file is a framed log of the durability kernel
(:class:`~repro.storage.durable.FramedLog`, docs/durability.md §2)
behind the header ``8s magic "MDBWAL02" | i32 page_size``, with two
record kinds::

    FRAME   arg = page id    payload = the page after-image
    COMMIT  arg = sequence   payload = empty

Recovery keeps the intact prefix the kernel decodes and truncates
everything after the last COMMIT — by construction exactly the
uncommitted/torn suffix, so recovery never loses committed data and
never resurrects a partial transaction.
"""

from __future__ import annotations

import logging
import struct
from typing import Dict, List, Optional

from ...errors import CorruptionError, RecoveryError
from ...obs.metrics import REGISTRY
from ..durable import RECORD, FramedLog, RealFS, read_records

__all__ = ["WriteAheadLog"]

logger = logging.getLogger("repro.storage")

_WAL_COMMITS = REGISTRY.counter(
    "repro_minidb_wal_commits_total",
    "Commit records sealed in MiniDB write-ahead logs",
    always_on=True,
)
_WAL_FRAMES = REGISTRY.counter(
    "repro_minidb_wal_frames_total",
    "Page after-images appended to MiniDB write-ahead logs",
    always_on=True,
)

_MAGIC = b"MDBWAL02"
_FRAME = 1
_COMMIT = 2


class WriteAheadLog:
    """Append-only page log with commit records (see module docstring).

    Parameters
    ----------
    path:
        Log file; created (with a fresh header) if missing.
    page_size:
        Size of every frame payload; must match the pager's.
    fsync:
        Issue a real ``fsync`` after each commit record.  Off by default:
        the crash model exercised by the test harness is at the file-API
        level, and tests/benchmarks should not pay for disk barriers.
    fs:
        File facade (:class:`~repro.storage.durable.RealFS` by default)
        so the fault harness can interpose.
    """

    def __init__(
        self,
        path: str,
        page_size: int,
        fsync: bool = False,
        fs: Optional[RealFS] = None,
    ) -> None:
        self.path = path
        self.page_size = page_size
        self.fsync = fsync
        self._log = FramedLog(
            fs or RealFS(), path, _MAGIC + struct.pack("<i", page_size),
            RecoveryError,
        )
        # page_id -> offset of its latest frame sealed by a commit
        self._committed: Dict[int, int] = {}
        # same, for frames of the in-flight transaction
        self._pending: Dict[int, int] = {}
        self._sequence = 0
        self._commit_end = self._log.end
        if self._log.torn_header:
            # the log never held a commit: it starts over
            logger.warning(
                "WAL recovery: %s has a torn header (%d bytes), "
                "reinitializing", path, self._log.size_at_open,
            )
        elif self._log.size_at_open:
            self._recover()

    def _recover(self) -> None:
        """Rebuild the committed index; truncate the uncommitted tail."""
        pending: Dict[int, int] = {}
        log = self._log
        for offset, kind, arg, payload in read_records(log.file, log.end):
            if kind == _FRAME and len(payload) == self.page_size:
                pending[arg] = offset
            elif kind == _COMMIT and not payload:
                self._committed.update(pending)
                pending.clear()
                self._sequence = arg
                self._commit_end = offset + RECORD.size
            else:
                break  # a record no writer of this format produces
        discarded = self._log.size_at_open - self._commit_end
        if discarded > 0:
            logger.warning(
                "WAL recovery: %s discarding %d byte(s) of uncommitted/"
                "torn tail after offset %d", self.path, discarded,
                self._commit_end,
            )
        if self._committed:
            logger.info(
                "WAL recovery: %s holds %d committed frame(s) "
                "(sequence %d)", self.path, len(self._committed),
                self._sequence,
            )
        self._log.truncate(self._commit_end)

    def page_bound(self, main_pages: int) -> int:
        """Pages the database holds: the main file's ``main_pages`` plus
        any the committed frames append.

        Every page past the main file's end got a frame before its
        commit, so a committed frame's page id lies in ``[0, main_pages
        + committed frames)``; one outside it is corruption, raised
        before replay writes anything.
        """
        limit = main_pages + len(self._committed)
        for page_id, offset in self._committed.items():
            if page_id >= limit:
                raise CorruptionError(
                    f"{self.path}: committed frame at offset {offset} "
                    f"names page {page_id}, outside the [0, {limit}) the "
                    "main file and the log can hold"
                )
        return max([main_pages, *(p + 1 for p in self._committed)])

    # ------------------------------------------------------------------ #
    # logging
    # ------------------------------------------------------------------ #

    def append(self, page_id: int, data: bytes) -> None:
        """Log one page after-image (uncommitted until :meth:`commit`)."""
        if len(data) != self.page_size:
            raise RecoveryError(
                f"WAL frame must be {self.page_size} bytes, got {len(data)}"
            )
        self._pending[page_id] = self._log.append(_FRAME, page_id, data)
        _WAL_FRAMES.inc()

    def commit(self) -> None:
        """Seal every pending frame with a commit record (+ optional fsync)."""
        if not self._pending:
            return
        self._log.append(_COMMIT, self._sequence + 1)
        if self.fsync:
            self._log.sync()
        self._sequence += 1
        self._commit_end = self._log.end
        self._committed.update(self._pending)
        self._pending.clear()
        _WAL_COMMITS.inc()

    def rollback(self) -> None:
        """Discard the in-flight transaction's frames."""
        self._pending.clear()
        self._log.truncate(self._commit_end)

    def reset(self) -> None:
        """Empty the log (after its pages were transferred + fsynced)."""
        self._pending.clear()
        self._committed.clear()
        self._commit_end = len(self._log.header)
        self._log.truncate(self._commit_end)

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._pending or page_id in self._committed

    def read(self, page_id: int) -> bytes:
        """Latest logged image of a page (pending wins over committed)."""
        offset = self._pending.get(page_id, self._committed.get(page_id))
        if offset is None:
            raise RecoveryError(f"page {page_id} is not in the WAL")
        try:
            return self._log.read(offset)
        except CorruptionError:
            from .pager import CHECKSUM_FAILURES

            CHECKSUM_FAILURES.inc()
            logger.error(
                "WAL frame corrupt: file=%s page=%d offset=%d",
                self.path, page_id, offset,
            )
            raise

    def committed_pages(self) -> List[int]:
        """Page ids with a committed frame (checkpoint-transfer work list)."""
        return sorted(self._committed)

    @property
    def is_empty(self) -> bool:
        return not self._committed and not self._pending

    def close(self, delete: bool = False) -> None:
        """Close the log file; ``delete=True`` after a clean checkpoint."""
        self._log.close(delete)

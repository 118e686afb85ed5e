"""The durability kernel: one file facade, one framed log, one install.

Both engines that keep bytes on disk — the MiniDB pager with its page
WAL, and the live tier with its observation WAL, partition files and
manifests — make the same three moves, and this module is the only
place they are written:

* **The file facade.**  :class:`RealFS` is the only way storage code
  opens a file for writing, fsyncs, replaces or removes one.  The fault
  harness (:class:`~repro.storage.faults.FaultInjector`) is a drop-in
  subclass, so one op counter enumerates every crash point of pager,
  WALs, partition seals and manifest installs alike.
* **The framed log.**  :class:`FramedLog` is an append-only file: a
  magic header, then records laid out as::

      u8 kind | u32 arg | u32 len | u32 crc | payload (len bytes)

  each issued as one ``write``.  ``crc`` is CRC-32 over the record's
  file offset (u64, not stored) followed by ``kind‖arg‖len‖payload``,
  so a torn write, a flipped bit *and* an intact record copied to
  another offset all fail it.  Decoding (:func:`read_records`) stops at
  the first record that is short, claims more bytes than the file has
  left, or fails its CRC; everything before it is intact.
* **The install.**  :func:`atomic_replace` writes a temp file, fsyncs
  it, renames it over the target and fsyncs the directory: a crash
  leaves the old file or the new one, never a torn one, and a power cut
  after it returns cannot bring the old one back.

A simulated power cut (:class:`FaultInjected`) is a ``BaseException``:
no ``except Exception`` cleanup runs for it, so temp files and partial
partition files stay on disk for the open-time sweep, exactly as a real
crash leaves them.  Only teardown swallows it (:data:`TEARDOWN_ERRORS`).
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Callable, Iterator, Tuple

from ..errors import CorruptionError, StorageError

__all__ = [
    "FaultInjected",
    "TEARDOWN_ERRORS",
    "RealFS",
    "RECORD",
    "encode_record",
    "read_records",
    "check_header",
    "FramedLog",
    "write_log",
    "atomic_replace",
]


class FaultInjected(BaseException):
    """A simulated power cut or torn write (raised by the fault harness).

    Not an ``Exception``: library code must never swallow a power cut,
    and ``except Exception`` cleanup — removing temp files, rolling a
    partial partition back — must not run for one, because a real crash
    runs no code at all.
    """


#: What a best-effort teardown step (a close) may swallow: any error,
#: and a simulated power cut — after it nothing reaches the disk anyway.
TEARDOWN_ERRORS = (Exception, FaultInjected)


class RealFS:
    """The file facade: every counted file operation of storage code.

    ``open`` defaults to **unbuffered**, so a completed ``write`` has
    reached the kernel and, under fault injection, the disk state
    freezes exactly at the last completed operation; the pager asks for
    a buffered main file with ``buffering=-1``.
    """

    def open(self, path: str, mode: str, buffering: int = 0):
        return open(path, mode, buffering=buffering)

    def fsync(self, fh) -> None:
        """fsync an open file (the caller flushes a buffered one first)."""
        os.fsync(fh.fileno())

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


# ---------------------------------------------------------------------- #
# the framed log
# ---------------------------------------------------------------------- #

#: Record header: kind, arg, payload length, crc.
RECORD = struct.Struct("<BIII")
_HEAD = struct.Struct("<BII")
_OFFSET = struct.Struct("<Q")


def _crc(offset: int, head: bytes, payload: bytes) -> int:
    return zlib.crc32(payload, zlib.crc32(_OFFSET.pack(offset) + head))


def encode_record(offset: int, kind: int, arg: int, payload: bytes) -> bytes:
    """The bytes of one record written at file ``offset``."""
    n = len(payload)
    crc = _crc(offset, _HEAD.pack(kind, arg, n), payload)
    return RECORD.pack(kind, arg, n, crc) + payload


def read_records(fh, start: int) -> Iterator[Tuple[int, int, int, bytes]]:
    """Yield ``(offset, kind, arg, payload)`` for each intact record of
    ``fh`` from ``start``; stop at the first short, overlong or
    CRC-failing one.  Reads are bounded by the file size, so no header
    can make the decoder allocate more than the file holds."""
    size = fh.seek(0, os.SEEK_END)
    pos = fh.seek(start)
    while True:
        rec = fh.read(RECORD.size)
        if len(rec) < RECORD.size:
            return
        kind, arg, n, crc = RECORD.unpack(rec)
        if n > size - pos - RECORD.size:
            return  # claims more than the file holds: a torn record
        payload = fh.read(n)
        if len(payload) < n or _crc(pos, rec[:_HEAD.size], payload) != crc:
            return
        yield pos, kind, arg, payload
        pos += RECORD.size + n


def check_header(fh, header: bytes, path: str, error=StorageError) -> bool:
    """Whether ``fh`` starts with ``header``.  False for a short (torn)
    header; a wrong one raises ``error`` — naming the version when it is
    the version-1 log an older build left after a crash."""
    fh.seek(0)
    got = fh.read(len(header))
    if len(got) < len(header):
        return False
    magic = header[:8]
    if got[:8] == magic[:6] + b"01":
        raise error(
            f"{path}: version-1 {magic[:6].decode()} log from an older "
            "build; recover it with that build (this one reads "
            f"version {magic[6:].decode()})"
        )
    if got[:8] != magic:
        raise error(f"{path}: not a {magic[:6].decode()} log")
    if got != header:
        raise error(
            f"{path}: log header {got[8:].hex()} does not match the "
            f"expected {header[8:].hex()}"
        )
    return True


class FramedLog:
    """One append-only framed log file (see module docstring).

    Opening creates the file with ``header`` when missing; otherwise it
    checks the header (a torn one reinitialises the file) and leaves the
    owner to decode the records (:func:`read_records`) and
    :meth:`truncate` the torn tail.
    """

    def __init__(self, fs, path: str, header: bytes,
                 error=StorageError) -> None:
        self.fs = fs
        self.path = path
        self.header = header
        fresh = not os.path.exists(path)
        if fresh:
            fs.open(path, "xb").close()
        self.file = fs.open(path, "r+b")
        #: File size at open (bytes a torn header discarded, if any).
        self.size_at_open = 0 if fresh else self.file.seek(0, os.SEEK_END)
        self.torn_header = False
        if fresh:
            self.file.write(header)
        else:
            try:
                ok = check_header(self.file, header, path, error)
            except BaseException:
                self.file.close()
                raise
            if not ok:
                self.torn_header = True
                self.file.seek(0)
                self.file.truncate(0)
                self.file.write(header)
        self.end = len(header)

    def append(self, kind: int, arg: int, payload: bytes = b"") -> int:
        """Write one record at the end (one ``write``); its offset."""
        offset = self.end
        self.file.seek(offset)
        self.file.write(encode_record(offset, kind, arg, payload))
        self.end = offset + RECORD.size + len(payload)
        return offset

    def read(self, offset: int) -> bytes:
        """The payload of the record at ``offset``, re-verified."""
        for _at, _kind, _arg, payload in read_records(self.file, offset):
            return payload
        raise CorruptionError(
            f"{self.path}: record at offset {offset} is corrupt"
        )

    def truncate(self, end: int) -> None:
        self.file.truncate(end)
        self.end = end

    def sync(self) -> None:
        self.fs.fsync(self.file)

    def reopen(self) -> None:
        """Re-open the path (after :func:`atomic_replace` swapped it)."""
        self.file.close()
        self.file = self.fs.open(self.path, "r+b")
        self.end = self.file.seek(0, os.SEEK_END)

    def close(self, delete: bool = False) -> None:
        try:
            self.file.close()
        finally:
            if delete and os.path.exists(self.path):
                self.fs.remove(self.path)


def write_log(fh, header: bytes, records) -> None:
    """Write a whole framed log into ``fh``: ``header``, then one
    ``write`` per ``(kind, arg, payload)`` record."""
    fh.write(header)
    offset = len(header)
    for kind, arg, payload in records:
        fh.write(encode_record(offset, kind, arg, payload))
        offset += RECORD.size + len(payload)


# ---------------------------------------------------------------------- #
# the install
# ---------------------------------------------------------------------- #


def atomic_replace(fs, path: str, write: Callable) -> None:
    """Install ``path`` atomically: ``write(fh)`` fills ``path.tmp``,
    which is fsynced and renamed over ``path``; a directory fsync then
    makes the rename itself durable.

    A failed install removes its temp file, so retries never find stale
    bytes; a simulated power cut leaves it for the open-time sweep.  A
    failing directory fsync is not a failed install (the facade swallows
    it): the rename is already visible.
    """
    tmp = path + ".tmp"
    try:
        fh = fs.open(tmp, "wb")
        try:
            write(fh)
            fs.fsync(fh)
        finally:
            fh.close()
        fs.replace(tmp, path)
    except Exception:
        try:
            fs.remove(tmp)
        except OSError:
            pass
        raise
    fs.fsync_dir(os.path.dirname(path) or ".")

"""Heap files: chained pages of fixed-width float rows.

Page layout (little-endian)::

    [0:4)   int32  number of rows in this page
    [4:8)   int32  next page id (-1 = end of chain)
    [8:..)  rows, each ``width`` float64 values

A row id (:class:`RID`) is ``(page_id, slot)``; random access costs one
page read — exactly the cost model that makes secondary-index lookups
expensive for large result sets (Figures 19-20).

:func:`pack_rows` is the one encoder of that layout (for
:meth:`HeapFile.append_many` and the write-once :func:`encode_chain`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from ...errors import InvalidParameterError, StorageError
from .pager import PAGE_CAPACITY, PAGE_SIZE, Pager

__all__ = ["HeapFile", "RID", "encode_chain", "pack_rows", "rows_per_page"]

_HEADER = struct.Struct("<ii")  # n_rows, next_page


def rows_per_page(width: int) -> int:
    """Rows of ``width`` floats that fit one heap page."""
    return (PAGE_CAPACITY - _HEADER.size) // (8 * width)


def pack_rows(page: bytearray, slot: int, rows: np.ndarray,
              next_page: int) -> None:
    """Lay the ``(m, width)`` block ``rows`` into ``page`` from ``slot``
    on and set the header to ``slot + m`` rows linking to ``next_page``."""
    raw = np.ascontiguousarray(rows, dtype="<f8")
    off = _HEADER.size + slot * 8 * raw.shape[1]
    page[off : off + raw.nbytes] = raw.tobytes()
    _HEADER.pack_into(page, 0, slot + raw.shape[0], next_page)


def encode_chain(rows: np.ndarray, first_page: int) -> List[bytearray]:
    """The pages of a whole heap chain holding ``rows``, laid out on
    consecutive page ids from ``first_page`` (an empty table is one
    empty page, as :class:`HeapFile` creates it)."""
    per = rows_per_page(rows.shape[1])
    n_pages = max(1, -(-rows.shape[0] // per))
    pages = []
    for i in range(n_pages):
        page = bytearray(PAGE_SIZE)
        last = i + 1 == n_pages
        pack_rows(page, 0, rows[i * per : (i + 1) * per],
                  -1 if last else first_page + i + 1)
        pages.append(page)
    return pages


@dataclass(frozen=True)
class RID:
    """Row id: page and slot."""

    page_id: int
    slot: int


class HeapFile:
    """An append-only table of fixed-width float rows.

    Parameters
    ----------
    pager:
        Shared pager.
    width:
        Floats per row (1..502 so at least one row fits a page).
    first_page:
        Existing chain head to reopen, or ``None`` to create a new chain.
    last_page / n_rows:
        Persisted tail state when reopening (kept in the catalog).
    """

    def __init__(
        self,
        pager: Pager,
        width: int,
        first_page: int = -1,
        last_page: int = -1,
        n_rows: int = 0,
    ) -> None:
        if width < 1:
            raise InvalidParameterError("row width must be >= 1")
        self.rows_per_page = rows_per_page(width)
        if self.rows_per_page < 1:
            raise InvalidParameterError(
                f"row width {width} does not fit a {PAGE_SIZE}-byte page"
            )
        self.pager = pager
        self.width = width
        self._row = struct.Struct("<" + "d" * width)
        self.first_page = first_page
        self.last_page = last_page
        self.n_rows = n_rows
        if self.first_page == -1:
            self.first_page = pager.allocate()
            self.last_page = self.first_page
            self._write_header(self.first_page, 0, -1)

    # ------------------------------------------------------------------ #
    # page helpers
    # ------------------------------------------------------------------ #

    def _read_header(self, page: bytes) -> Tuple[int, int]:
        return _HEADER.unpack_from(page, 0)

    def _write_header(self, page_id: int, n_rows: int, next_page: int) -> None:
        page = bytearray(self.pager.read(page_id))
        _HEADER.pack_into(page, 0, n_rows, next_page)
        self.pager.write(page_id, bytes(page))

    def _row_offset(self, slot: int) -> int:
        return _HEADER.size + slot * 8 * self.width

    # ------------------------------------------------------------------ #
    # operations
    # ------------------------------------------------------------------ #

    def append(self, row: Sequence[float]) -> RID:
        """Append one row; returns its rid."""
        if len(row) != self.width:
            raise InvalidParameterError(
                f"expected {self.width} values, got {len(row)}"
            )
        page = bytearray(self.pager.read(self.last_page))
        count, next_page = self._read_header(page)
        if count >= self.rows_per_page:
            new_page = self.pager.allocate()
            self._write_header(new_page, 0, -1)
            _HEADER.pack_into(page, 0, count, new_page)
            self.pager.write(self.last_page, bytes(page))
            self.last_page = new_page
            page = bytearray(self.pager.read(new_page))
            count, next_page = 0, -1
        self._row.pack_into(page, self._row_offset(count), *row)
        _HEADER.pack_into(page, 0, count + 1, next_page)
        self.pager.write(self.last_page, bytes(page))
        rid = RID(self.last_page, count)
        self.n_rows += 1
        return rid

    def append_many(self, rows) -> None:
        """Append many rows, packing whole pages at a time.

        Produces byte-identical pages to an :meth:`append` loop — the
        tail page is topped up first, then each subsequent page is
        filled with ``rows_per_page`` rows and linked into the chain —
        but touches each page once instead of once per row.
        """
        arr = np.ascontiguousarray(rows, dtype="<f8")
        if arr.ndim != 2 or arr.shape[1] != self.width:
            raise InvalidParameterError(
                f"expected rows of width {self.width}, got shape {arr.shape}"
            )
        n = arr.shape[0]
        if n == 0:
            return
        # top up the tail page
        page = bytearray(self.pager.read(self.last_page))
        count, next_page = self._read_header(page)
        take = min(self.rows_per_page - count, n)
        pos = 0
        if take > 0:
            pack_rows(page, count, arr[:take], next_page)
            count += take
            pos = take
        # then whole new pages, linking each into the chain
        while pos < n:
            new_page = self.pager.allocate()
            self._write_header(new_page, 0, -1)
            _HEADER.pack_into(page, 0, count, new_page)
            self.pager.write(self.last_page, bytes(page))
            self.last_page = new_page
            chunk = arr[pos : pos + self.rows_per_page]
            page = bytearray(self.pager.read(new_page))
            pack_rows(page, 0, chunk, -1)
            count, next_page = chunk.shape[0], -1
            pos += chunk.shape[0]
        _HEADER.pack_into(page, 0, count, next_page)
        self.pager.write(self.last_page, bytes(page))
        self.n_rows += n

    def get(self, rid: RID) -> Tuple[float, ...]:
        """Fetch one row by rid (one page read)."""
        page = self.pager.read(rid.page_id)
        count, _next = self._read_header(page)
        if not (0 <= rid.slot < count):
            raise StorageError(f"invalid rid {rid}")
        return self._row.unpack_from(page, self._row_offset(rid.slot))

    def scan(self) -> Iterator[Tuple[RID, Tuple[float, ...]]]:
        """Sequential scan in insertion order."""
        page_id = self.first_page
        while page_id != -1:
            page = self.pager.read(page_id)
            count, next_page = self._read_header(page)
            for slot in range(count):
                yield RID(page_id, slot), self._row.unpack_from(
                    page, self._row_offset(slot)
                )
            page_id = next_page

    def n_pages(self) -> int:
        """Pages in the chain (walks the chain)."""
        pages = 0
        page_id = self.first_page
        while page_id != -1:
            pages += 1
            _count, page_id = self._read_header(self.pager.read(page_id))
        return pages

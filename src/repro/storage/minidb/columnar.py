"""Columnar read views over MiniDB heap chains and B+tree leaves.

Decoding one row per :class:`struct.Struct` call is per-row Python that
dominates query time (EXPERIMENTS.md, PR 8 profile).  This module is the
store's query-time reader: array-at-once decodes of the **unchanged**
page byte layouts:

* :class:`ColumnarView` — a per-database cache of whole heap chains as
  ``(n_rows, width)`` float64 blocks.  A block is built once per open
  (and after every invalidation) by walking the chain and decoding each
  page's row region with one ``np.frombuffer`` instead of ``n`` struct
  unpacks.  When the pager has no uncommitted state the bytes are read
  through an mmap of the main file (bulk, pool-bypassing); otherwise
  each page is fetched through the buffer pool so uncommitted appends
  stay visible.  The view must be invalidated on every write path,
  checkpoint, and cold-cache request (the store does this).

* :func:`probe_index_block` — a vectorized B+tree leading-column probe:
  leaf pages are decoded with one structured ``frombuffer`` each, cut
  with ``searchsorted`` on the leading key column (early exit at the
  first leaf that crosses the bound), and the matching entries' heap
  rows are gathered **per distinct page** instead of one random read
  per row.

* ``table_block(name, upto=T)`` — the probe of a *clustered* table
  (heap in key order, no B+tree): ``Δt <= T`` is a prefix of the chain.

Page accounting keeps the paper's logical cost model intact: every
serve still charges one logical page read per chain page (cached view)
or per matching index entry (batched gather) — see
:meth:`Pager.note_cached_reads` / :meth:`Pager.note_view_read` — so the
page-cost experiments (Figures 19-20 regimes) report the same
``page_reads`` a row-at-a-time reader would, while physical I/O drops.
"""

from __future__ import annotations

import mmap
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ...errors import CorruptionError, StorageError
from .btree import _LEAF_HEADER
from .heapfile import _HEADER as _HEAP_HEADER
from .heapfile import HeapFile
from .pager import PAGE_SIZE

__all__ = ["ColumnarView", "decode_heap_chain", "probe_index_block"]


class _CachedBlock:
    __slots__ = ("first_page", "n_rows", "ends", "block")

    def __init__(self, first_page: int, n_rows: int, ends: np.ndarray,
                 block: np.ndarray) -> None:
        self.first_page = first_page
        self.n_rows = n_rows
        self.ends = ends  # cumulative rows at the end of each chain page
        self.block = block


class ColumnarView:
    """Cache of heap chains decoded into contiguous float64 blocks.

    Blocks are read-only (served zero-copy to every query) and keyed by
    table name; the table object is re-resolved on every access so the
    view survives catalog reloads (rollback).  A cached entry is used
    only while the heap's ``(first_page, n_rows)`` still match — a
    safety net under the store's explicit :meth:`invalidate` calls.
    """

    def __init__(self, db) -> None:
        self._db = db
        self._blocks: Dict[str, _CachedBlock] = {}

    def invalidate(self) -> None:
        """Drop every cached block (appends, checkpoints, cold cache)."""
        self._blocks.clear()

    def table_block(self, name: str, guard=None,
                    upto: Optional[float] = None) -> np.ndarray:
        """The table's full heap as an ``(n_rows, width)`` block.

        A cached serve charges one logical page read (pool hit) per
        chain page — identical to the ledger of a fully warm
        buffer-pool scan.  ``upto`` (a clustered table) serves only the
        prefix with leading key ``<= upto`` and charges the chain pages
        up to and including the cut.
        """
        heap = self._db.table(name).heap
        cached = self._blocks.get(name)
        if (
            cached is not None
            and cached.first_page == heap.first_page
            and cached.n_rows == heap.n_rows
        ):
            if guard is not None:
                guard.tick()
            block, ends = cached.block, cached.ends
            cut = block.shape[0] if upto is None else _cut(block, upto)
            pages = int(np.searchsorted(ends, cut, side="right")) + 1
            heap.pager.note_cached_reads(min(pages, ends.shape[0]))
            return block[:cut]
        block, _page_ids, counts = decode_heap_chain(heap, guard)
        self._blocks[name] = _CachedBlock(
            heap.first_page, heap.n_rows, np.cumsum(counts), block
        )
        return block if upto is None else block[: _cut(block, upto)]


def _cut(block: np.ndarray, first_max: float) -> int:
    """Rows of a key-ordered block with leading key ``<= first_max``."""
    return int(np.searchsorted(block[:, 0], first_max, side="right"))


def decode_heap_chain(
    heap: HeapFile, guard=None, upto: Optional[float] = None
) -> Tuple[np.ndarray, List[int], List[int]]:
    """Walk one heap chain into a fresh read-only ``(n_rows, width)``
    block; also returns the chain's page ids and rows per page (row
    ``i``'s rid follows from them).  With ``upto`` (a chain in key
    order) the walk stops after the first page whose last leading key
    exceeds it, and the block holds the rows with leading key
    ``<= upto``.

    When the pager holds no uncommitted state every committed byte is in
    the main file, so the chain is read through an mmap (bulk I/O, no
    pool churn) with per-page CRC verification; pages the mmap cannot
    serve — uncommitted state, or a chain page past the file end — go
    through the buffer pool as before.
    """
    pager = heap.pager
    width = heap.width
    out = np.empty((heap.n_rows, width), dtype=float)
    mapped = None
    if not pager.has_uncommitted:
        try:
            mapped = mmap.mmap(
                pager._file.fileno(), 0, access=mmap.ACCESS_READ
            )
        except (AttributeError, ValueError, OSError):
            # empty file, a file-like without a real descriptor (fault
            # harness), or mmap unavailable: fall back to the pool path
            mapped = None
    try:
        file_pages = (len(mapped) // PAGE_SIZE) if mapped is not None else 0
        pos = 0
        page_ids: List[int] = []
        counts: List[int] = []
        page_id = heap.first_page
        while page_id != -1:
            # a chain visits each page at most once; without this bound a
            # cycle of empty pages would walk forever
            if len(page_ids) >= pager.n_pages:
                raise CorruptionError(
                    f"{pager.path}: heap chain from page {heap.first_page} "
                    f"is longer than the file's {pager.n_pages} pages "
                    "(next-page cycle)"
                )
            if guard is not None:
                guard.tick()
            if not (0 <= page_id < pager.n_pages):
                raise CorruptionError(f"{pager.path}: heap chain links "
                                      f"to page {page_id}, past the file")
            if mapped is not None and page_id < file_pages:
                off = page_id * PAGE_SIZE
                data = mapped[off : off + PAGE_SIZE]
                pager._verify(page_id, data)
                pager.note_view_read(page_id)
            else:
                data = pager.read(page_id)
            count, next_page = _HEAP_HEADER.unpack_from(data, 0)
            # appends fill every page but the last: with the catalog's
            # row count, each page's count is known before it is read
            expected = min(heap.rows_per_page, out.shape[0] - pos)
            if count != expected:
                raise CorruptionError(
                    f"{pager.path}: heap page {page_id} holds {count} rows "
                    f"of width {width} where a chain of {out.shape[0]} "
                    f"rows needs {expected}"
                )
            if count:
                out[pos : pos + count] = np.frombuffer(
                    data, dtype="<f8", count=count * width,
                    offset=_HEAP_HEADER.size,
                ).reshape(count, width)
                pos += count
            page_ids.append(page_id)
            counts.append(count)
            page_id = next_page
            if upto is not None and pos and out[pos - 1, 0] > upto:
                out = out[: _cut(out[:pos], upto)]
                pos = out.shape[0]
                break
    finally:
        if mapped is not None:
            mapped.close()
    if pos != out.shape[0]:
        raise StorageError(
            f"{pager.path}: heap chain holds {pos} rows but the catalog "
            f"records {out.shape[0]}"
        )
    out.flags.writeable = False
    return out, page_ids, counts


def probe_index_block(
    table,
    index_name: str,
    first_max: float,
    v_mask: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    guard=None,
) -> np.ndarray:
    """Vectorized leading-column index probe with batched heap gather.

    Returns an ``(m, key_width + 4)`` float64 block — index key columns
    followed by the rows' identifying timestamps, in leaf-chain (key)
    order.  ``v_mask`` (keys block -> bool mask) applies the value
    pushdown before any heap fetch, so only *matching* entries pay the
    random heap read.
    """
    tree = table.index(index_name)
    key_width = tree.key_width
    keys, rid_pages, rid_slots = _leaf_entries_upto(tree, first_max, guard)
    if v_mask is not None and keys.shape[0]:
        mask = v_mask(keys)
        keys = keys[mask]
        rid_pages = rid_pages[mask]
        rid_slots = rid_slots[mask]
    ident = _gather_ident(table.heap, rid_pages, rid_slots, key_width, guard)
    out = np.empty((keys.shape[0], key_width + 4))
    out[:, :key_width] = keys
    out[:, key_width:] = ident
    return out


def _leaf_entries_upto(
    tree, first_max: float, guard=None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode leaf-chain entries with leading key column <= ``first_max``.

    One structured ``frombuffer`` per leaf page; the cut inside a leaf is
    a ``searchsorted`` on the leading column (keys are lexicographically
    sorted, so the leading column is non-decreasing across the chain and
    the walk stops at the first leaf that crosses the bound).  Leaf pages
    are read through the buffer pool, so index-page accounting is that
    of a row-at-a-time leaf walk.
    """
    key_width = tree.key_width
    keys_parts, page_parts, slot_parts = [], [], []
    for data, n in tree.leaves(tree._leftmost_leaf()):
        if guard is not None:
            guard.tick()
        if n:
            entries = np.frombuffer(
                data, dtype=tree.entry_dtype, count=n,
                offset=_LEAF_HEADER.size,
            )
            keys = entries["key"]
            cut = int(
                np.searchsorted(keys[:, 0], first_max, side="right")
            )
            if cut:
                keys_parts.append(keys[:cut].astype(float))
                page_parts.append(entries["page"][:cut].astype(np.int64))
                slot_parts.append(entries["slot"][:cut].astype(np.int64))
            if cut < n:
                break  # every later entry's leading column exceeds the bound
    if not keys_parts:
        return (
            np.empty((0, key_width)),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    return (
        np.concatenate(keys_parts),
        np.concatenate(page_parts),
        np.concatenate(slot_parts),
    )


def _gather_ident(
    heap: HeapFile,
    rid_pages: np.ndarray,
    rid_slots: np.ndarray,
    key_width: int,
    guard=None,
) -> np.ndarray:
    """The ``(m, 4)`` identifying columns for the given rids, aligned
    with the input order.

    Rows are gathered per distinct heap page: one pool read decodes the
    whole page, and the page's other requested slots are charged as pool
    hits via :meth:`Pager.note_cached_reads` — the logical per-row page
    cost of a rid-at-a-time fetch (Figures 19-20) with one physical
    decode per page instead of one per row.  A rid whose page is past the
    file, or whose slot is negative or past the page's rows, comes from a
    leaf that passed its CRC with wrong bytes: :class:`CorruptionError`.
    """
    n = rid_pages.shape[0]
    out = np.empty((n, 4))
    if n == 0:
        return out
    pager = heap.pager
    width = heap.width
    order = np.argsort(rid_pages, kind="stable")
    sorted_pages = rid_pages[order]
    starts = np.flatnonzero(np.r_[True, np.diff(sorted_pages) != 0])
    bounds = np.append(starts, n)
    for gi in range(starts.shape[0]):
        group = order[bounds[gi] : bounds[gi + 1]]
        page_id = int(sorted_pages[bounds[gi]])
        if guard is not None:
            guard.tick()
        if not 0 <= page_id < pager.n_pages:
            raise CorruptionError(
                f"{pager.path}: index rid page {page_id} is past the "
                f"file's {pager.n_pages} pages"
            )
        data = pager.read(page_id)
        count, _next = _HEAP_HEADER.unpack_from(data, 0)
        if not 0 <= count <= heap.rows_per_page:
            raise CorruptionError(
                f"{pager.path}: heap page {page_id} claims {count} rows; "
                f"a page holds 0..{heap.rows_per_page}"
            )
        rows = np.frombuffer(
            data, dtype="<f8", count=count * width, offset=_HEAP_HEADER.size
        ).reshape(count, width)
        slots = rid_slots[group]
        lo, hi = int(slots.min()), int(slots.max())
        if lo < 0 or hi >= count:
            raise CorruptionError(
                f"{pager.path}: index rid slot {lo if lo < 0 else hi} is "
                f"outside page {page_id}'s {count} rows"
            )
        out[group] = rows[slots, key_width : key_width + 4]
        if group.shape[0] > 1:
            pager.note_cached_reads(group.shape[0] - 1)
    return out

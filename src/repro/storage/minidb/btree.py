"""A bulk-loaded B+tree over composite float keys.

The Section 4.4 indexes are B-trees on the concatenation of feature
columns — ``(dt, dv)`` for point tables, ``(dt1, dv1, dt2, dv2)`` for
line tables.  This module implements the structure directly:

* leaves hold ``(key, rid)`` entries and are chained for range scans;
* internal nodes hold separator keys;
* the tree is built bottom-up from sorted entries (``CREATE INDEX``
  semantics — MiniDB rebuilds indexes at ``finalize()``), and also
  supports incremental :meth:`insert` with classic leaf/internal node
  splits, so a live index can absorb streamed features.

A leading-column range query (``dt <= T``) scans leaves from the leftmost
one and stops at the first key exceeding ``T``; every *match* then costs
a heap-page fetch via its rid, which is exactly why forced index plans
lose on large result sets (Figures 19-20).

Page layouts (little-endian)::

    leaf:     u8 kind=1 | i32 n | i32 next_leaf | n * (key..., rid_page, rid_slot)
    internal: u8 kind=0 | i32 n | i32 child0 | n * (key..., child)
"""

from __future__ import annotations

import bisect
import struct
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ...errors import CorruptionError, InvalidParameterError, StorageError
from .heapfile import RID
from .pager import PAGE_CAPACITY, PAGE_SIZE, Pager

__all__ = ["BPlusTree"]

_LEAF_HEADER = struct.Struct("<Bii")  # kind, n_entries, next_leaf
_INT_HEADER = struct.Struct("<Bii")  # kind, n_keys, child0

Key = Tuple[float, ...]
Entry = Tuple[Key, RID]


class BPlusTree:
    """Read-only-after-build B+tree (see module docstring).

    Parameters
    ----------
    pager:
        Shared pager.
    key_width:
        Floats per key.
    root:
        Existing root page to reopen, or ``-1`` before :meth:`bulk_load`.
    """

    def __init__(self, pager: Pager, key_width: int, root: int = -1) -> None:
        if key_width < 1:
            raise InvalidParameterError("key width must be >= 1")
        self.pager = pager
        self.key_width = key_width
        self.root = root
        self._key = struct.Struct("<" + "d" * key_width)
        self._leaf_entry = struct.Struct("<" + "d" * key_width + "ii")
        self._int_entry = struct.Struct("<" + "d" * key_width + "i")
        #: The leaf / internal entry layouts above as numpy record types.
        self.entry_dtype = np.dtype(
            [("key", "<f8", (key_width,)), ("page", "<i4"), ("slot", "<i4")]
        )
        self._int_dtype = np.dtype(
            [("key", "<f8", (key_width,)), ("child", "<i4")]
        )
        self.leaf_fanout = (
            PAGE_CAPACITY - _LEAF_HEADER.size
        ) // self._leaf_entry.size
        self.internal_fanout = (
            PAGE_CAPACITY - _INT_HEADER.size
        ) // self._int_entry.size
        if self.leaf_fanout < 2 or self.internal_fanout < 2:
            raise InvalidParameterError(
                f"key width {key_width} leaves too little fanout"
            )

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def bulk_load(self, entries) -> int:
        """Build the tree from entries sorted ascending by key.

        ``entries`` is a structured array of :attr:`entry_dtype` (the
        leaf entry layout, so a leaf's entry region is one slice of it)
        or a sequence of ``(key, rid)`` pairs, which is converted to
        one.  Returns (and stores) the root page id; an empty input
        produces an empty leaf root.
        """
        if not isinstance(entries, np.ndarray):
            entries = np.array(
                [(key, rid.page_id, rid.slot) for key, rid in entries],
                dtype=self.entry_dtype,
            )
        keys = entries["key"]
        n = entries.shape[0]
        if n > 1:
            # lexicographic ``keys[i] > keys[i + 1]``: the first column
            # where the two rows differ decides
            differs = keys[:-1] != keys[1:]
            first = differs.argmax(axis=1)
            rows = np.arange(n - 1)
            if np.any(
                differs[rows, first]
                & (keys[:-1][rows, first] > keys[1:][rows, first])
            ):
                raise InvalidParameterError("bulk_load requires sorted entries")

        # level 0: packed, chained leaves; each leaf's successor is
        # allocated before the leaf is written, so the link goes in once
        chunk = self.leaf_fanout
        starts = range(0, n, chunk) or [0]
        leaf_ids: List[int] = []
        page_id = self.pager.allocate()
        for i, start in enumerate(starts):
            group = entries[start : start + chunk]
            next_leaf = self.pager.allocate() if i + 1 < len(starts) else -1
            page = bytearray(PAGE_SIZE)
            _LEAF_HEADER.pack_into(page, 0, 1, group.shape[0], next_leaf)
            body = group.tobytes()
            page[_LEAF_HEADER.size : _LEAF_HEADER.size + len(body)] = body
            self.pager.write(page_id, bytes(page))
            leaf_ids.append(page_id)
            page_id = next_leaf

        # upper levels: one separator (a child's first key) per child
        child_ids = np.array(leaf_ids, dtype="<i4")
        child_keys = keys[::chunk]
        chunk = self.internal_fanout
        while child_ids.shape[0] > 1:
            parent_ids: List[int] = []
            for start in range(0, child_ids.shape[0], chunk):
                ids = child_ids[start : start + chunk]
                seps = np.empty(ids.shape[0] - 1, dtype=self._int_dtype)
                seps["key"] = child_keys[start + 1 : start + chunk]
                seps["child"] = ids[1:]
                page = bytearray(PAGE_SIZE)
                _INT_HEADER.pack_into(page, 0, 0, seps.shape[0], int(ids[0]))
                body = seps.tobytes()
                page[_INT_HEADER.size : _INT_HEADER.size + len(body)] = body
                page_id = self.pager.allocate()
                self.pager.write(page_id, bytes(page))
                parent_ids.append(page_id)
            child_ids = np.array(parent_ids, dtype="<i4")
            child_keys = child_keys[::chunk]

        self.root = int(child_ids[0])
        return self.root

    # ------------------------------------------------------------------ #
    # incremental insert
    # ------------------------------------------------------------------ #

    def insert(self, key: Key, rid: RID) -> None:
        """Insert one entry, splitting nodes as needed.

        Duplicate keys are allowed (entries with equal keys are adjacent
        in scan order).  The tree must have been built (possibly from an
        empty ``bulk_load([])``).
        """
        self._check_built()
        if len(key) != self.key_width:
            raise InvalidParameterError("key has wrong width")
        key = tuple(float(k) for k in key)
        split = self._insert_into(self.root, key, rid)
        if split is not None:
            sep_key, right_id = split
            # grow a new root above the old one
            page = bytearray(PAGE_SIZE)
            _INT_HEADER.pack_into(page, 0, 0, 1, self.root)
            self._int_entry.pack_into(
                page, _INT_HEADER.size, *sep_key, right_id
            )
            new_root = self.pager.allocate()
            self.pager.write(new_root, bytes(page))
            self.root = new_root

    def _insert_into(self, page_id: int, key: Key, rid: RID):
        """Recursive insert; returns ``(separator, new_right_page)`` when
        ``page_id`` split, else ``None``."""
        node = self._decode(page_id)
        if node[0] == "leaf":
            _kind, entries, next_leaf = node
            idx = bisect.bisect_right([k for k, _ in entries], key)
            entries.insert(idx, (key, rid))
            if len(entries) <= self.leaf_fanout:
                self._write_leaf(page_id, entries, next_leaf)
                return None
            mid = len(entries) // 2
            left, right = entries[:mid], entries[mid:]
            right_id = self.pager.allocate()
            self._write_leaf(right_id, right, next_leaf)
            self._write_leaf(page_id, left, right_id)
            return (right[0][0], right_id)

        _kind, keys, children = node
        idx = bisect.bisect_right(keys, key)
        split = self._insert_into(children[idx], key, rid)
        if split is None:
            return None
        sep_key, right_id = split
        keys.insert(idx, sep_key)
        children.insert(idx + 1, right_id)
        if len(keys) <= self.internal_fanout:
            self._write_internal(page_id, keys, children)
            return None
        mid = len(keys) // 2
        up_key = keys[mid]
        left_keys, right_keys = keys[:mid], keys[mid + 1 :]
        left_children, right_children = children[: mid + 1], children[mid + 1 :]
        new_right = self.pager.allocate()
        self._write_internal(new_right, right_keys, right_children)
        self._write_internal(page_id, left_keys, left_children)
        return (up_key, new_right)

    def _write_leaf(self, page_id: int, entries, next_leaf: int) -> None:
        page = bytearray(PAGE_SIZE)
        _LEAF_HEADER.pack_into(page, 0, 1, len(entries), next_leaf)
        offset = _LEAF_HEADER.size
        for key, rid in entries:
            self._leaf_entry.pack_into(page, offset, *key, rid.page_id, rid.slot)
            offset += self._leaf_entry.size
        self.pager.write(page_id, bytes(page))

    def _write_internal(self, page_id: int, keys, children) -> None:
        page = bytearray(PAGE_SIZE)
        _INT_HEADER.pack_into(page, 0, 0, len(keys), children[0])
        offset = _INT_HEADER.size
        for key, child in zip(keys, children[1:]):
            self._int_entry.pack_into(page, offset, *key, child)
            offset += self._int_entry.size
        self.pager.write(page_id, bytes(page))

    # ------------------------------------------------------------------ #
    # page decoding
    # ------------------------------------------------------------------ #

    def leaf_header(self, page_id: int, page: bytes) -> Tuple[int, int]:
        """A leaf's ``(n_entries, next_leaf)``.  A page whose CRC passes
        may still be no leaf, or carry a count that does not fit."""
        kind, n, next_leaf = _LEAF_HEADER.unpack_from(page, 0)
        if kind != 1 or not 0 <= n <= self.leaf_fanout:
            raise CorruptionError(
                f"{self.pager.path}: page {page_id} (kind {kind}) claims "
                f"{n} leaf entries; a leaf holds 0..{self.leaf_fanout}"
            )
        return n, next_leaf

    def leaves(self, page_id: int) -> Iterator[Tuple[bytes, int]]:
        """``(page, n_entries)`` of each leaf along the chain from
        ``page_id``.  A chain longer than the file is a next-leaf cycle."""
        start = page_id
        for _ in range(self.pager.n_pages):
            if page_id == -1:
                return
            page = self._node_page(page_id)
            n, next_leaf = self.leaf_header(page_id, page)
            yield page, n
            page_id = next_leaf
        if page_id != -1:
            raise CorruptionError(
                f"{self.pager.path}: leaf chain from page {start} is "
                f"longer than the file's {self.pager.n_pages} pages"
            )

    def _leaf_entries(self, page: bytes, n: int) -> List[Entry]:
        size = self._leaf_entry.size
        entries = []
        for offset in range(_LEAF_HEADER.size, _LEAF_HEADER.size + n * size,
                            size):
            *key, rid_page, rid_slot = self._leaf_entry.unpack_from(
                page, offset
            )
            entries.append((tuple(key), RID(rid_page, rid_slot)))
        return entries

    def _node_page(self, page_id: int) -> bytes:
        """A node's page.  The link to it came from the file, so a page id
        past the file is corruption, not a caller's error."""
        if not 0 <= page_id < self.pager.n_pages:
            raise CorruptionError(
                f"{self.pager.path}: B+tree links to page {page_id}, past "
                f"the file's {self.pager.n_pages} pages"
            )
        return self.pager.read(page_id)

    def _decode(self, page_id: int):
        page = self._node_page(page_id)
        kind = page[0]
        if kind == 1:
            n, next_leaf = self.leaf_header(page_id, page)
            return ("leaf", self._leaf_entries(page, n), next_leaf)
        _k, n, child0 = _INT_HEADER.unpack_from(page, 0)
        if not 0 <= n <= self.internal_fanout:
            raise CorruptionError(
                f"{self.pager.path}: internal page {page_id} claims {n} "
                f"keys; a node holds 0..{self.internal_fanout}"
            )
        keys: List[Key] = []
        children: List[int] = [child0]
        offset = _INT_HEADER.size
        for _ in range(n):
            *key, child = self._int_entry.unpack_from(page, offset)
            keys.append(tuple(key))
            children.append(child)
            offset += self._int_entry.size
        return ("internal", keys, children)

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    def _leftmost_leaf(self) -> int:
        self._check_built()
        page_id = self.root
        while True:
            node = self._decode(page_id)
            if node[0] == "leaf":
                return page_id
            page_id = node[2][0]

    def _leaf_for(self, key: Key) -> int:
        self._check_built()
        page_id = self.root
        while True:
            node = self._decode(page_id)
            if node[0] == "leaf":
                return page_id
            keys, children = node[1], node[2]
            idx = bisect.bisect_right(keys, key)
            page_id = children[idx]

    def scan_from(self, lo_key: Optional[Key] = None) -> Iterator[Entry]:
        """Entries with key >= ``lo_key`` in ascending order (all entries
        when ``lo_key`` is None)."""
        if lo_key is None:
            page_id = self._leftmost_leaf()
        else:
            if len(lo_key) != self.key_width:
                raise InvalidParameterError("lo_key has wrong width")
            page_id = self._leaf_for(tuple(lo_key))
        for page, n in self.leaves(page_id):
            for key, rid in self._leaf_entries(page, n):
                if lo_key is None or key >= tuple(lo_key):
                    yield key, rid

    def scan_leading_upto(self, first_max: float) -> Iterator[Entry]:
        """Entries whose leading key column is <= ``first_max``.

        This is the access path of the Section 4.4 queries: a range on
        the index's leading column from the left end.
        """
        for page, n in self.leaves(self._leftmost_leaf()):
            for key, rid in self._leaf_entries(page, n):
                if key[0] > first_max:
                    return
                yield key, rid

    def height(self) -> int:
        """Levels from root to leaf (1 for a single-leaf tree)."""
        self._check_built()
        levels = 1
        page_id = self.root
        while True:
            node = self._decode(page_id)
            if node[0] == "leaf":
                return levels
            levels += 1
            page_id = node[2][0]

    def n_pages(self) -> int:
        """Pages in the tree (BFS count).  A tree with more nodes than
        the file has pages links a child back up (a cycle)."""
        self._check_built()
        count = 0
        frontier = [self.root]
        while frontier:
            page_id = frontier.pop()
            count += 1
            if count > self.pager.n_pages:
                raise CorruptionError(
                    f"{self.pager.path}: B+tree from root {self.root} has "
                    f"more nodes than the file's {self.pager.n_pages} pages"
                )
            node = self._decode(page_id)
            if node[0] == "internal":
                frontier.extend(node[2])
        return count

    def _check_built(self) -> None:
        if self.root < 0:
            raise StorageError("B+tree has not been built yet")

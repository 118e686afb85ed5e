"""MiniDB catalog, tables, indexes, transactions, and fsck.

A database is one page file.  Page 0 anchors the **catalog**: a JSON
document (spanning a chain of pages) describing every table's heap chain,
row count, and indexes, plus a free-form metadata map.  ``checkpoint()``
persists the catalog and flushes dirty pages, after which the file can be
reopened cold.

Durability (docs/durability.md):

* :meth:`MiniDatabase.transaction` groups multi-page mutations (heap
  appends, B+tree splits, catalog updates) into one atomic unit — the
  catalog and every dirtied page are committed together through the
  pager's write-ahead log, and an exception rolls all of it back;
* reopening a file after a crash replays the WAL's committed prefix, so
  exactly the committed transactions are visible;
* :meth:`MiniDatabase.check` is the fsck pass: it walks catalog → heaps
  → indexes and reports every inconsistency as a structured
  :class:`~repro.errors.CorruptionError` (page checksums are verified on
  every read as a matter of course).

A table marked ``"clustered": [key columns]`` is stored in key order
with no B+tree (sealed partitions, :mod:`.sealed`); its file is
write-once: mutations raise, and its catalog is never rewritten.
"""

from __future__ import annotations

import json
import struct
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ...errors import (
    CorruptionError,
    InvalidParameterError,
    StorageError,
)
from ..durable import RealFS
from .btree import BPlusTree
from .columnar import decode_heap_chain
from .heapfile import _HEADER as _HEAP_HEADER
from .heapfile import RID, HeapFile
from .pager import PAGE_CAPACITY, PAGE_SIZE, Pager, PagerStats

__all__ = ["MiniDatabase", "Table", "catalog_pages", "encode_catalog"]

_MAGIC = b"MINIDB01"
_HEAD = struct.Struct("<8sii")  # magic, total_len, next_page
_CONT = struct.Struct("<i")  # next_page
_HEAD_CAP = PAGE_CAPACITY - _HEAD.size
_CONT_CAP = PAGE_CAPACITY - _CONT.size


def catalog_pages(payload: bytes) -> int:
    """Pages the catalog chain needs to hold ``payload``."""
    return 1 + max(0, -(-(len(payload) - _HEAD_CAP) // _CONT_CAP))


def encode_catalog(payload: bytes, chain: Sequence[int]) -> List[bytearray]:
    """The catalog pages holding ``payload`` laid over ``chain`` (page 0
    first, ``catalog_pages(payload)`` ids): the one catalog layout."""
    pages = []
    offset = 0
    for i, page_id in enumerate(chain):
        nxt = chain[i + 1] if i + 1 < len(chain) else -1
        buf = bytearray(PAGE_SIZE)
        if i == 0:
            _HEAD.pack_into(buf, 0, _MAGIC, len(payload), nxt)
            start, body = _HEAD.size, _HEAD_CAP
        else:
            _CONT.pack_into(buf, 0, nxt)
            start, body = _CONT.size, _CONT_CAP
        piece = payload[offset : offset + body]
        buf[start : start + len(piece)] = piece
        offset += len(piece)
        pages.append(buf)
    return pages


class Table:
    """One heap-backed table with optional B+tree indexes."""

    def __init__(self, db: "MiniDatabase", name: str, info: Dict) -> None:
        self._db = db
        self.name = name
        self._info = info
        self.heap = HeapFile(
            db.pager,
            info["width"],
            first_page=info["first_page"],
            last_page=info["last_page"],
            n_rows=info["n_rows"],
        )
        info["first_page"] = self.heap.first_page
        info["last_page"] = self.heap.last_page
        self._indexes: Dict[str, BPlusTree] = {}
        for iname, iinfo in info["indexes"].items():
            self._indexes[iname] = BPlusTree(
                db.pager, len(iinfo["key_cols"]), root=iinfo["root"]
            )

    @property
    def width(self) -> int:
        return self._info["width"]

    @property
    def n_rows(self) -> int:
        return self.heap.n_rows

    @property
    def clustered(self) -> Optional[List[int]]:
        """Key columns the heap is stored in order of, or ``None``."""
        return self._info.get("clustered")

    def insert(self, row: Sequence[float]) -> RID:
        """Append one row (indexes are NOT maintained; rebuild them)."""
        self._db._check_writable()
        rid = self.heap.append(row)
        self._info["n_rows"] = self.heap.n_rows
        self._info["last_page"] = self.heap.last_page
        return rid

    def insert_many(self, rows) -> None:
        """Append many rows via the page-packed bulk path."""
        self._db._check_writable()
        self.heap.append_many(rows)
        self._info["n_rows"] = self.heap.n_rows
        self._info["last_page"] = self.heap.last_page

    def insert_indexed(self, row: Sequence[float]) -> RID:
        """Append one row and update every index incrementally."""
        rid = self.insert(row)
        for iname, tree in self._indexes.items():
            cols = self._info["indexes"][iname]["key_cols"]
            tree.insert(tuple(row[c] for c in cols), rid)
            iinfo = self._info["indexes"][iname]
            iinfo["root"] = tree.root
            iinfo["n_entries"] = iinfo.get("n_entries", 0) + 1
        return rid

    def get(self, rid: RID) -> Tuple[float, ...]:
        return self.heap.get(rid)

    def scan(self) -> Iterator[Tuple[RID, Tuple[float, ...]]]:
        return self.heap.scan()

    # ------------------------------------------------------------------ #
    # indexes
    # ------------------------------------------------------------------ #

    def create_index(self, name: str, key_cols: Sequence[int]) -> BPlusTree:
        """(Re)build a B+tree on the given column positions."""
        self._db._check_writable()
        cols = [int(c) for c in key_cols]
        if not cols or any(not (0 <= c < self.width) for c in cols):
            raise InvalidParameterError(
                f"key columns {cols} invalid for width {self.width}"
            )
        rows, page_ids, counts = decode_heap_chain(self.heap)
        starts = np.cumsum(counts) - counts  # first row of each page
        tree = BPlusTree(self._db.pager, len(cols))
        entries = np.empty(rows.shape[0], dtype=tree.entry_dtype)
        entries["key"] = rows[:, cols]
        entries["page"] = np.repeat(page_ids, counts)
        entries["slot"] = np.arange(rows.shape[0]) - np.repeat(starts, counts)
        # stable, so equal keys stay in heap (rid) order
        order = np.lexsort(entries["key"].T[::-1])
        tree.bulk_load(entries[order])
        self._indexes[name] = tree
        self._info["indexes"][name] = {
            "key_cols": cols,
            "root": tree.root,
            "n_entries": len(entries),
        }
        return tree

    def has_index(self, name: str) -> bool:
        return name in self._indexes

    def index(self, name: str) -> BPlusTree:
        if name not in self._indexes:
            raise InvalidParameterError(
                f"table {self.name!r} has no index {name!r}"
            )
        return self._indexes[name]

    def index_scan_leading(
        self, name: str, first_max: float
    ) -> Iterator[Tuple[Tuple[float, ...], RID]]:
        """Index entries with leading key column <= ``first_max``.

        Yields ``(key, rid)``; fetching the full row via :meth:`get` is
        the caller's (deliberately visible) random-I/O cost.
        """
        return self.index(name).scan_leading_upto(first_max)

    def index_pages(self) -> int:
        """Total pages across this table's indexes."""
        return sum(tree.n_pages() for tree in self._indexes.values())

    def heap_pages(self) -> int:
        """Pages in the heap chain."""
        return self.heap.n_pages()


class MiniDatabase:
    """A page file with a catalog of tables (see module docstring).

    Parameters
    ----------
    path:
        Backing page file.
    cache_pages:
        Buffer-pool capacity.
    fsync / fs:
        Passed through to :class:`Pager`.  Every :meth:`transaction` is
        atomic and crash recovery runs automatically on open.
    """

    def __init__(
        self,
        path: str,
        cache_pages: int = 256,
        fsync: bool = False,
        fs: Optional[RealFS] = None,
    ) -> None:
        self.pager = Pager(path, cache_pages=cache_pages, fsync=fsync, fs=fs)
        self._tables: Dict[str, Table] = {}
        self._catalog: Dict = {"tables": {}, "meta": {}}
        self._txn_depth = 0
        self._closed = False
        #: A file holding clustered tables is sealed: never mutated.
        self.write_once = False
        if self.pager.n_pages == 0:
            root = self.pager.allocate()
            assert root == 0
            self._write_catalog()
            self.pager.commit()  # an empty database is a committed state
        else:
            self._read_catalog()
            self._load_tables()

    def _load_tables(self) -> None:
        self._tables = {}
        for name, info in self._catalog["tables"].items():
            self._tables[name] = Table(self, name, info)
        self.write_once = any(t.clustered for t in self._tables.values())

    def _check_writable(self) -> None:
        if self.write_once:
            raise StorageError(
                f"{self.pager.path} is a sealed, write-once file"
            )

    # ------------------------------------------------------------------ #
    # catalog persistence
    # ------------------------------------------------------------------ #

    def _write_catalog(self) -> None:
        if self.write_once:
            return  # nothing can have changed: the chain stays as written
        payload = json.dumps(self._catalog).encode()
        # reuse the existing chain where possible
        chain: List[int] = [0]
        page = self.pager.read(0)
        magic, _len, next_page = _HEAD.unpack_from(page, 0)
        if magic == _MAGIC:
            while next_page != -1:
                chain.append(next_page)
                (next_page,) = _CONT.unpack_from(self.pager.read(next_page), 0)
        needed = catalog_pages(payload)
        while len(chain) < needed:
            chain.append(self.pager.allocate())
        chain = chain[:needed]
        for page_id, buf in zip(chain, encode_catalog(payload, chain)):
            self.pager.write(page_id, bytes(buf))

    def _read_catalog(self) -> None:
        page = self.pager.read(0)
        magic, total, next_page = _HEAD.unpack_from(page, 0)
        if magic != _MAGIC:
            raise StorageError(f"{self.pager.path} is not a MiniDB file")
        head_take = min(total, PAGE_CAPACITY - _HEAD.size)
        payload = bytearray(page[_HEAD.size : _HEAD.size + head_take])
        while len(payload) < total and next_page != -1:
            if not (0 < next_page < self.pager.n_pages):
                raise CorruptionError(
                    f"{self.pager.path}: catalog chain links to page "
                    f"{next_page}, outside the file"
                )
            page = self.pager.read(next_page)
            (next_page,) = _CONT.unpack_from(page, 0)
            take = min(total - len(payload), PAGE_CAPACITY - _CONT.size)
            payload.extend(page[_CONT.size : _CONT.size + take])
        if len(payload) != total:
            raise CorruptionError(
                f"{self.pager.path}: truncated MiniDB catalog"
            )
        try:
            self._catalog = json.loads(bytes(payload).decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CorruptionError(
                f"{self.pager.path}: catalog is not valid JSON: {exc}"
            ) from exc

    # ------------------------------------------------------------------ #
    # transactions
    # ------------------------------------------------------------------ #

    @contextmanager
    def transaction(self) -> Iterator["MiniDatabase"]:
        """Atomic scope: commit on success, roll back on exception.

        Nested uses join the outermost transaction (commit/rollback
        happen only when the outermost scope exits).
        """
        self._check_open()
        self._txn_depth += 1
        try:
            yield self
        except BaseException:
            self._txn_depth -= 1
            if self._txn_depth == 0:
                self.rollback()
            raise
        else:
            self._txn_depth -= 1
            if self._txn_depth == 0:
                try:
                    self.commit()
                except BaseException:
                    # a failed commit must not leave half-applied state
                    # visible in memory; the WAL tail is uncommitted so
                    # rollback restores the last durable snapshot
                    self.rollback()
                    raise

    def commit(self) -> None:
        """Persist the catalog and atomically commit all dirty pages."""
        self._check_open()
        self._write_catalog()
        self.pager.commit()

    def rollback(self) -> None:
        """Discard uncommitted changes; reload catalog and tables."""
        self._check_open()
        self.pager.rollback()
        self._read_catalog()
        self._load_tables()

    # ------------------------------------------------------------------ #
    # tables
    # ------------------------------------------------------------------ #

    def create_table(self, name: str, width: int) -> Table:
        self._check_writable()
        if name in self._tables:
            raise InvalidParameterError(f"table {name!r} already exists")
        info = {
            "width": int(width),
            "first_page": -1,
            "last_page": -1,
            "n_rows": 0,
            "indexes": {},
        }
        self._catalog["tables"][name] = info
        table = Table(self, name, info)
        self._tables[name] = table
        return table

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table(self, name: str) -> Table:
        if name not in self._tables:
            raise InvalidParameterError(f"no table {name!r}")
        return self._tables[name]

    @property
    def table_names(self) -> List[str]:
        return sorted(self._tables)

    # ------------------------------------------------------------------ #
    # metadata and lifecycle
    # ------------------------------------------------------------------ #

    def set_meta(self, key: str, value) -> None:
        """Store one JSON-serializable metadata value."""
        self._check_writable()
        self._catalog["meta"][key] = value

    def get_meta(self, key: str):
        return self._catalog["meta"].get(key)

    def checkpoint(self) -> None:
        """Persist the catalog and flush dirty pages (WAL transferred)."""
        self._check_open()
        self._write_catalog()
        self.pager.flush()

    def drop_cache(self) -> None:
        """Exact cold cache: flush and empty the buffer pool."""
        self.pager.drop_cache()

    def stats(self) -> PagerStats:
        """Cumulative pager counters."""
        return self.pager.stats

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._write_catalog()
        finally:
            self.pager.close()

    def __enter__(self) -> "MiniDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("database is closed")

    # ------------------------------------------------------------------ #
    # fsck
    # ------------------------------------------------------------------ #

    def check(self) -> List[CorruptionError]:
        """Walk catalog → heaps → indexes; return every inconsistency.

        Page checksums are verified for *every* allocated page, then each
        table's heap chain and B+trees are validated structurally:
        in-range page ids, no chain cycles, header row counts within
        capacity, catalog row counts matching the chains, sorted index
        keys, rids that resolve to live rows, and index entry counts
        matching the catalog.  An empty list means the file is clean.
        """
        self._check_open()
        problems: List[CorruptionError] = []

        # verify disk state, not pool copies — but never as a side effect
        # of fsck commit someone's in-flight changes
        if not self.pager.has_uncommitted:
            self.pager.drop_cache()

        # 1. every allocated page must pass its checksum
        for page_id in range(self.pager.n_pages):
            try:
                self.pager.read(page_id)
            except CorruptionError as exc:
                problems.append(exc)

        # 2. the catalog must parse (it did at open; re-verify structure)
        try:
            self._read_catalog()
            # keep live Table objects wired to the freshly parsed catalog
            self._load_tables()
        except CorruptionError as exc:
            problems.append(exc)
            return problems  # nothing else is walkable
        except StorageError as exc:
            problems.append(CorruptionError(str(exc)))
            return problems

        claimed: Dict[int, str] = {0: "catalog"}
        page = self.pager.read(0)
        _magic, _total, next_page = _HEAD.unpack_from(page, 0)
        while next_page != -1:
            claimed[next_page] = "catalog"
            (next_page,) = _CONT.unpack_from(self.pager.read(next_page), 0)

        for name in self.table_names:
            table = self.table(name)
            heap_counts = self._check_heap(table, claimed, problems)
            for iname in sorted(table._indexes):
                self._check_index(table, iname, heap_counts, claimed, problems)
        return problems

    def _claim(
        self,
        page_id: int,
        owner: str,
        claimed: Dict[int, str],
        problems: List[CorruptionError],
    ) -> bool:
        """Record page ownership; report double-claims and range errors."""
        if not (0 <= page_id < self.pager.n_pages):
            problems.append(
                CorruptionError(
                    f"{owner}: page id {page_id} out of range "
                    f"[0, {self.pager.n_pages})"
                )
            )
            return False
        if page_id in claimed:
            problems.append(
                CorruptionError(
                    f"{owner}: page {page_id} already belongs to "
                    f"{claimed[page_id]}"
                )
            )
            return False
        claimed[page_id] = owner
        return True

    def _check_heap(
        self,
        table: Table,
        claimed: Dict[int, str],
        problems: List[CorruptionError],
    ) -> Dict[int, int]:
        """Walk one heap chain; returns {page_id: row count} for rid checks.
        A clustered chain must also be in key order across its pages."""
        owner = f"table {table.name!r} heap"
        heap = table.heap
        counts: Dict[int, int] = {}
        total = 0
        page_id = heap.first_page
        last_seen = page_id
        prev_key = None  # clustered key of the chain's last row so far
        while page_id != -1:
            if not self._claim(page_id, owner, claimed, problems):
                break  # cycle or bad link: stop walking
            try:
                page = self.pager.read(page_id)
            except CorruptionError:
                break  # already reported by the checksum sweep
            count, next_page = heap._read_header(page)
            if not (0 <= count <= heap.rows_per_page):
                problems.append(
                    CorruptionError(
                        f"{owner}: page {page_id} claims {count} rows "
                        f"(capacity {heap.rows_per_page})"
                    )
                )
                break
            if table.clustered and count:
                keys = np.frombuffer(
                    page, "<f8", count * heap.width, _HEAP_HEADER.size
                ).reshape(count, heap.width)[:, table.clustered]
                if prev_key is not None:
                    keys = np.vstack([prev_key, keys])
                # a stable sort of rows already in order moves none
                if (np.lexsort(keys.T[::-1]) != np.arange(len(keys))).any():
                    problems.append(CorruptionError(
                        f"{owner}: page {page_id} breaks the clustered "
                        "key order"))
                prev_key = keys[-1]
            counts[page_id] = count
            total += count
            last_seen = page_id
            page_id = next_page
        if total != table._info["n_rows"]:
            problems.append(
                CorruptionError(
                    f"{owner}: chain holds {total} rows but the catalog "
                    f"records {table._info['n_rows']}"
                )
            )
        if last_seen != heap.last_page:
            problems.append(
                CorruptionError(
                    f"{owner}: chain ends at page {last_seen} but the "
                    f"catalog records last_page={heap.last_page}"
                )
            )
        return counts

    def _check_index(
        self,
        table: Table,
        iname: str,
        heap_counts: Dict[int, int],
        claimed: Dict[int, str],
        problems: List[CorruptionError],
    ) -> None:
        owner = f"table {table.name!r} index {iname!r}"
        tree = table._indexes[iname]
        iinfo = table._info["indexes"][iname]
        if tree.root < 0:
            problems.append(CorruptionError(f"{owner}: no root page"))
            return
        # BFS over internal nodes, collecting leaves
        frontier = [tree.root]
        leaves: Set[int] = set()
        while frontier:
            page_id = frontier.pop()
            if not self._claim(page_id, owner, claimed, problems):
                return
            try:
                node = tree._decode(page_id)
            except (CorruptionError, struct.error):
                problems.append(
                    CorruptionError(f"{owner}: page {page_id} is undecodable")
                )
                return
            if node[0] == "leaf":
                leaves.add(page_id)
            elif node[0] == "internal":
                frontier.extend(node[2])
            else:
                problems.append(
                    CorruptionError(
                        f"{owner}: page {page_id} has unknown node kind"
                    )
                )
                return
        # walk the leaf chain explicitly (cycle-safe: every visited page
        # must be a leaf the BFS discovered, and none may repeat), checking
        # sorted keys and resolvable rids
        entries = 0
        prev_key = None
        visited: Set[int] = set()
        try:
            page_id = tree._leftmost_leaf()
            while page_id != -1:
                if page_id not in leaves or page_id in visited:
                    problems.append(
                        CorruptionError(
                            f"{owner}: leaf chain escapes the tree at page "
                            f"{page_id}"
                        )
                    )
                    return
                visited.add(page_id)
                _kind, leaf_entries, page_id = tree._decode(page_id)
                for key, rid in leaf_entries:
                    entries += 1
                    if prev_key is not None and key < prev_key:
                        problems.append(
                            CorruptionError(
                                f"{owner}: keys out of order at entry "
                                f"{entries}"
                            )
                        )
                    prev_key = key
                    if rid.page_id not in heap_counts:
                        problems.append(
                            CorruptionError(
                                f"{owner}: entry {entries} points at page "
                                f"{rid.page_id}, not in the table's heap "
                                "chain"
                            )
                        )
                    elif not (0 <= rid.slot < heap_counts[rid.page_id]):
                        problems.append(
                            CorruptionError(
                                f"{owner}: entry {entries} slot {rid.slot} "
                                f"exceeds page {rid.page_id}'s "
                                f"{heap_counts[rid.page_id]} rows"
                            )
                        )
        except (CorruptionError, StorageError, struct.error) as exc:
            problems.append(
                CorruptionError(f"{owner}: leaf chain walk failed: {exc}")
            )
            return
        expected = iinfo.get("n_entries")
        if expected is not None and entries != expected:
            problems.append(
                CorruptionError(
                    f"{owner}: {entries} entries but the catalog records "
                    f"{expected}"
                )
            )

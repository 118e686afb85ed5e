"""Merkle-style segment-checksum trees for shard anti-entropy.

A replica of a SegDiff shard can silently diverge from its source — bit
rot, a botched migration, a partial repair.  Re-reading every feature
row on both sides to find out is O(n); the divide-and-conquer protocol
of data-diff (SNIPPETS.md) needs only O(log n) checksum *comparisons*
per divergent row: split each table into fixed-size leaf ranges,
checksum each range, hash the range checksums pairwise up to a root,
and descend only into subtrees whose digests disagree.

The tree covers the four feature tables of one store, rows taken in
**storage order** (insertion order — deterministic because every replica
is produced by the same deterministic build pipeline, or by copying row
ranges from a peer).  Digests are CRC32: fast, dependency-free, and
exactly representable as a float64, which lets a tree persist through
the stores' scalar ``set_meta_many``/``get_meta`` interface so the
authoritative tree built at finalize travels inside the shard file
itself.

Verification compares two trees top-down (:func:`diff_trees`) and
reports the mismatching *leaf row ranges*; repair then re-copies only
those ranges (:meth:`repro.engine.sharding.ShardedIndex.repair`).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import CorruptionError, InvalidParameterError, StorageError
from ..obs.metrics import REGISTRY

__all__ = [
    "DEFAULT_LEAF_SIZE",
    "ChecksumTree",
    "build_tree",
    "store_trees",
    "diff_trees",
    "tree_meta",
    "persist_trees",
    "load_trees",
    "TABLES",
]

#: Feature rows per leaf range.  64 keeps a week-scale shard's tree at a
#: few hundred nodes while still localizing a single divergent row to a
#: small re-copy window.
DEFAULT_LEAF_SIZE = 64

#: The four feature tables a tree set covers, in canonical order.
TABLES = ("drop_points", "drop_lines", "jump_points", "jump_lines")

RANGES_CHECKED = REGISTRY.counter(
    "repro_verify_ranges_checked",
    "Checksum ranges (tree nodes) compared during verify()",
)
RANGES_MISMATCHED = REGISTRY.counter(
    "repro_verify_ranges_mismatched",
    "Checksum ranges found divergent during verify()",
)

_META_PREFIX = "cks"
#: Largest integer a float64 meta value carries exactly.
_MAX_ROWS = 2 ** 53


def _crc_rows(rows: np.ndarray) -> int:
    """CRC32 of a row range's float64 bytes (0 for an empty range)."""
    arr = np.ascontiguousarray(rows, dtype=float)
    return zlib.crc32(arr.tobytes())


def _crc_pair(left: int, right: int) -> int:
    return zlib.crc32(struct.pack("<II", left, right))


def _levels(leaves) -> Tuple[Tuple[int, ...], ...]:
    """``leaves`` and every level above them, paired up to one root."""
    levels: List[Tuple[int, ...]] = [tuple(leaves)]
    while len(levels[-1]) > 1:
        below = levels[-1]
        levels.append(tuple(
            _crc_pair(below[i], below[i + 1]) if i + 1 < len(below)
            else below[i]
            for i in range(0, len(below), 2)
        ))
    return tuple(levels)


@dataclass(frozen=True)
class ChecksumTree:
    """The checksum tree of one feature table.

    ``levels[0]`` holds the leaf digests (one per ``leaf_size`` rows,
    at least one even for an empty table); each higher level pairs the
    one below; ``levels[-1]`` is the single root.
    """

    table: str
    leaf_size: int
    n_rows: int
    levels: Tuple[Tuple[int, ...], ...]

    @property
    def root(self) -> int:
        return self.levels[-1][0]

    @property
    def n_leaves(self) -> int:
        return len(self.levels[0])

    def leaf_range(self, leaf: int) -> Tuple[int, int]:
        """The ``[start, stop)`` row range leaf ``leaf`` covers."""
        start = leaf * self.leaf_size
        return start, min(start + self.leaf_size, self.n_rows)

    def leaf_of_row(self, row: int) -> int:
        return row // self.leaf_size


def build_tree(
    rows: np.ndarray, table: str, leaf_size: int = DEFAULT_LEAF_SIZE
) -> ChecksumTree:
    """Checksum ``rows`` (storage order) into a :class:`ChecksumTree`."""
    if leaf_size < 1:
        raise InvalidParameterError("leaf_size must be >= 1")
    rows = np.asarray(rows, dtype=float)
    n = int(rows.shape[0])
    leaves = [
        _crc_rows(rows[i : i + leaf_size]) for i in range(0, n, leaf_size)
    ] or [_crc_rows(rows[:0])]
    return ChecksumTree(
        table=table, leaf_size=int(leaf_size), n_rows=n, levels=_levels(leaves)
    )


def store_trees(
    store, leaf_size: int = DEFAULT_LEAF_SIZE
) -> Dict[str, ChecksumTree]:
    """Recompute the tree of every feature table from ``store``'s rows."""
    return {
        table: build_tree(store.read_table_rows(table), table, leaf_size)
        for table in TABLES
    }


def diff_trees(
    source: ChecksumTree, other: ChecksumTree
) -> Tuple[List[Tuple[int, int]], int]:
    """Mismatching leaf row ranges between two trees, data-diff style.

    Starts at the roots and descends only into subtrees whose digests
    disagree, so ``k`` divergent rows cost ``O(k log n)`` comparisons
    instead of an O(n) row-by-row diff.  Returns ``(ranges, checked)``
    where ``ranges`` are ``[start, stop)`` row ranges of ``source`` and
    ``checked`` counts the node comparisons made (also added to the
    ``repro_verify_ranges_checked`` metric).

    Trees with different shapes (row count or leaf size) cannot be
    diffed range-by-range; the whole table is reported as one divergent
    range.
    """
    checked = 1
    if (
        source.n_rows != other.n_rows
        or source.leaf_size != other.leaf_size
        or source.n_leaves != other.n_leaves
    ):
        RANGES_CHECKED.inc(checked)
        RANGES_MISMATCHED.inc()
        return [(0, max(source.n_rows, other.n_rows))], checked
    if source.root == other.root:
        RANGES_CHECKED.inc(checked)
        return [], checked

    # descend level by level; ``suspects`` holds mismatching node
    # indices of the current level
    suspects = [0]
    for level in range(len(source.levels) - 2, -1, -1):
        next_suspects = []
        a_level, b_level = source.levels[level], other.levels[level]
        for parent in suspects:
            for child in (2 * parent, 2 * parent + 1):
                if child >= len(a_level):
                    continue
                checked += 1
                if a_level[child] != b_level[child]:
                    next_suspects.append(child)
        suspects = next_suspects
    ranges = [source.leaf_range(leaf) for leaf in suspects]
    RANGES_CHECKED.inc(checked)
    RANGES_MISMATCHED.inc(len(ranges))
    return ranges, checked


# ---------------------------------------------------------------------- #
# persistence through the scalar meta interface
# ---------------------------------------------------------------------- #


def tree_meta(trees: Dict[str, ChecksumTree]) -> Dict[str, float]:
    """The ``cks/<table>/...`` meta items that persist a tree set.

    CRC32 digests are 32-bit integers, exact in a float64, so the
    stores' scalar meta interface carries the whole tree.
    """
    items: Dict[str, float] = {}
    for table, tree in trees.items():
        prefix = f"{_META_PREFIX}/{table}"
        items[f"{prefix}/leaf_size"] = float(tree.leaf_size)
        items[f"{prefix}/n_rows"] = float(tree.n_rows)
        items[f"{prefix}/n_levels"] = float(len(tree.levels))
        for li, level in enumerate(tree.levels):
            items[f"{prefix}/len/{li}"] = float(len(level))
            for ni, digest in enumerate(level):
                items[f"{prefix}/{li}/{ni}"] = float(digest)
    return items


def persist_trees(store, trees: Dict[str, ChecksumTree]) -> None:
    """Write a tree set into ``store``'s meta table as one durable unit."""
    store.set_meta_many(tree_meta(trees))


def _meta_int(store, key: str, table: str, lo: int, hi: int) -> int:
    """One persisted integer in ``[lo, hi]``.  The value comes off disk:
    absent is a truncated tree, anything else out of range (``nan``,
    ``-1``, ``1e18``) is corruption — never a loop bound."""
    value = store.get_meta(key)
    if value is None:
        raise StorageError(f"truncated checksum tree for {table}")
    if not (lo <= value <= hi) or value != int(value):
        raise CorruptionError(
            f"checksum tree for {table}: {key} = {value!r} is outside "
            f"[{lo}, {hi}]"
        )
    return int(value)


def load_trees(store) -> Optional[Dict[str, ChecksumTree]]:
    """Read back a persisted tree set; ``None`` when no table has one.

    The four trees are persisted together, so a set that names some
    tables' ``leaf_size`` but not all is truncated, not absent: it
    raises :class:`~repro.errors.StorageError` instead of reading as an
    index sealed before trees existed.  The shape is fully determined
    by ``n_rows`` and ``leaf_size``
    (level 0 holds ``max(1, ceil(n_rows / leaf_size))`` digests, each
    level above half of the one below, rounded up, down to one root),
    so every persisted length is checked against it before it bounds a
    loop; a mismatch raises :class:`~repro.errors.CorruptionError`.  So
    does a digest above the leaves that is not the hash of the two
    below it: :func:`diff_trees` stops at equal roots and descends only
    into unequal nodes, so an inner digest it trusts must be sound.
    """
    if all(store.get_meta(f"{_META_PREFIX}/{table}/leaf_size") is None
           for table in TABLES):
        return None
    trees: Dict[str, ChecksumTree] = {}
    for table in TABLES:
        prefix = f"{_META_PREFIX}/{table}"
        leaf_size = _meta_int(store, f"{prefix}/leaf_size", table, 1, _MAX_ROWS)
        n_rows = _meta_int(store, f"{prefix}/n_rows", table, 0, _MAX_ROWS)
        lengths = [max(1, -(-n_rows // leaf_size))]
        while lengths[-1] > 1:
            lengths.append(-(-lengths[-1] // 2))
        _meta_int(
            store, f"{prefix}/n_levels", table, len(lengths), len(lengths)
        )
        levels = []
        for li, n in enumerate(lengths):
            _meta_int(store, f"{prefix}/len/{li}", table, n, n)
            levels.append(tuple(
                _meta_int(store, f"{prefix}/{li}/{ni}", table, 0, 0xFFFFFFFF)
                for ni in range(n)
            ))
        if tuple(levels) != _levels(levels[0]):
            raise CorruptionError(
                f"checksum tree for {table}: inner digests do not hash "
                "up from the leaves"
            )
        trees[table] = ChecksumTree(
            table=table, leaf_size=leaf_size, n_rows=n_rows,
            levels=tuple(levels),
        )
    return trees

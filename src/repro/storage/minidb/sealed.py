"""Write-once, clustered MiniDB files: how a live partition is sealed.

A sealed partition never changes, so it needs neither the page WAL nor
a B+tree.  :class:`ClusteredSink` is the store a seal (or a compaction
merge) copies into through
:func:`~repro.storage.partitions.copy_store_into`; the caller then
fsyncs the file and installs the manifest, its commit point, so a torn
file is an orphan the manifest does not name (docs/durability.md §1).
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping

import numpy as np

from ...obs.metrics import REGISTRY
from .database import catalog_pages, encode_catalog
from .heapfile import encode_chain
from .pager import stamp
from .store import _FEATURE_TABLES, TABLE_WIDTHS, key_cols

__all__ = ["ClusteredSink"]

#: The seal's page writes, in the family the pagers count theirs in.
_DISK_WRITES = REGISTRY.counter(
    "repro_minidb_disk_writes_total",
    "Physical page writes (main file or WAL)",
    {"backend": "minidb", "pager": "sealed"},
    always_on=True,
)


class ClusteredSink:
    """The write-once store a MiniDB seal copies into.

    :meth:`finalize` orders each feature table with a stable ``lexsort``
    on its key, so ties keep global extraction order and the file
    depends only on the stream; ``store_trees`` reads that order back
    through :meth:`read_table_rows`.  :meth:`set_meta_many`, the seal's
    last store call, writes the file: the heap chains on consecutive
    pages from page 1, the catalog head on page 0 and its continuation
    pages last — each page once, through the shared encoders.
    """

    def __init__(self, path: str, fs) -> None:
        self.path = path
        self._fs = fs
        self._tables: Dict[str, List[np.ndarray]] = {
            name: [np.empty((0, width))] for name, width in TABLE_WIDTHS
        }

    def add_features_bulk(self, batch) -> None:
        for name in _FEATURE_TABLES:
            self._tables[name].append(getattr(batch, name))

    def add_segments_bulk(self, segments) -> None:
        self._tables["segments"].append(np.array(
            [(s.t_start, s.v_start, s.t_end, s.v_end) for s in segments]
        ).reshape(-1, 4))

    def finalize(self) -> None:
        for name, width in TABLE_WIDTHS:
            rows = np.concatenate(self._tables[name])
            if name != "segments":
                rows = rows[np.lexsort(rows[:, key_cols(width)].T[::-1])]
            self._tables[name] = [rows]

    def read_table_rows(self, table: str, start: int = 0, stop=None):
        return self._tables[table][0][start:stop]

    def set_meta_many(self, items: Mapping[str, float]) -> None:
        pages: List[bytearray] = [bytearray()]  # page 0 is encoded last
        catalog: Dict = {
            "tables": {}, "meta": {k: float(v) for k, v in items.items()}
        }
        for name, width in TABLE_WIDTHS:
            rows = self._tables[name][0]
            chain = encode_chain(rows, len(pages))
            info = catalog["tables"][name] = {
                "width": width, "first_page": len(pages),
                "last_page": len(pages) + len(chain) - 1,
                "n_rows": int(rows.shape[0]), "indexes": {},
            }
            if name != "segments":
                info["clustered"] = list(key_cols(width))
            pages += chain
        payload = json.dumps(catalog).encode()
        n = len(pages)
        head, *rest = encode_catalog(
            payload, [0] + list(range(n, n + catalog_pages(payload) - 1))
        )
        pages[0] = head
        fh = self._fs.open(self.path, "wb")
        try:
            for page in pages + rest:
                fh.write(stamp(page))
        finally:
            fh.close()
        _DISK_WRITES.inc(len(pages) + len(rest))

    def close(self) -> None:
        self._tables.clear()

"""The scalar §4.4 oracle the read-contract suites compare against:
``point_match`` / ``line_match`` row by row, then ``sorted(set(...))``.

Rows are read through code that shares nothing with the ``*_array``
primitives under test: ``Table.scan()`` on MiniDB, a fresh rowid-ordered
cursor on SQLite, the table array on memory.
"""

import sqlite3
from contextlib import closing

from repro.core.queries import line_match, point_match
from repro.types import SegmentPair


def table_rows(store, table):
    """Every row of one feature table as tuples, in storage order."""
    if store.BACKEND == "minidb":
        return [row for _rid, row in store.db.table(table).scan()]
    if store.BACKEND == "sqlite":
        with closing(sqlite3.connect(store.path)) as conn:
            sql = f"SELECT * FROM {table} ORDER BY rowid"
            return conn.execute(sql).fetchall()
    return [tuple(row) for row in store._tables[table].data.tolist()]


def oracle_pairs(stores, query):
    """The distinct pairs matching ``query`` over the union of the
    ``stores``' rows, in the §4.4 result order."""
    kind, t, v = query.kind, query.t_threshold, query.v_threshold
    idents = set()
    for store in stores:
        for r in table_rows(store, f"{kind}_points"):
            if point_match(kind, r[0], r[1], t, v):
                idents.add(tuple(r[2:6]))
        for r in table_rows(store, f"{kind}_lines"):
            if line_match(kind, r[0], r[1], r[2], r[3], t, v):
                idents.add(tuple(r[4:8]))
    return [SegmentPair(*ident) for ident in sorted(idents)]

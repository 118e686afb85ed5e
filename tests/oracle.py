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


def walk_sample_points(store, kind, n):
    """The MiniDB planner sample as a row-at-a-time ``Table.scan()``
    walk: every ``total // n``-th row's (dt, dv), at most ``n``."""
    import numpy as np

    table = store.db.table(f"{kind}_points")
    total = table.n_rows
    if total == 0:
        return None
    step = max(1, total // max(n, 1))
    out = []
    for i, (_rid, row) in enumerate(table.scan()):
        if i % step == 0:
            out.append(row[:2])
            if len(out) >= n:
                break
    return np.asarray(out, dtype=float)


def walk_extreme_feature_dv(store, kind):
    """The MiniDB top-k bound as a row-at-a-time walk: min (drop) / max
    (jump) Δv over the point rows and both Δv columns of the line rows."""
    values = [row[1] for row in table_rows(store, f"{kind}_points")]
    for row in table_rows(store, f"{kind}_lines"):
        values += [row[1], row[3]]
    if not values:
        return None
    return min(values) if kind == "drop" else max(values)


def dt_sorted_prefix(rows, t_threshold):
    """The memory store's index probe as it was before tables were
    stored clustered: the insertion-order ``rows`` gathered in stable
    Δt order, cut after the last ``dt <= T`` row."""
    import numpy as np

    cut = int((rows[:, 0] <= t_threshold).sum())
    return rows[np.argsort(rows[:, 0], kind="stable")][:cut]

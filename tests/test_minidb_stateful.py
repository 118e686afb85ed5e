"""Model-based (stateful) tests for the MiniDB engine.

Hypothesis drives random operation sequences against the pager and a set
of heap files, checking them at every step against trivial in-memory
models (a dict of pages; lists of rows).  This is the style of testing
that catches cross-structure corruption — the class of bug the
append-mode file regression belonged to.
"""

import os
import tempfile

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.storage.faults import FaultInjected, FaultInjector, FaultPolicy
from repro.storage.minidb import (
    PAGE_CAPACITY,
    PAGE_SIZE,
    HeapFile,
    MiniDatabase,
    Pager,
)


class PagerMachine(RuleBasedStateMachine):
    """Random allocate/write/read/drop-cache sequences vs a dict model."""

    def __init__(self):
        super().__init__()
        fd, self.path = tempfile.mkstemp(suffix=".pages")
        os.close(fd)
        os.unlink(self.path)
        self.pager = Pager(self.path, cache_pages=3)  # tiny: force evictions
        self.model = {}

    pages = Bundle("pages")

    @rule(target=pages)
    def allocate(self):
        pid = self.pager.allocate()
        self.model[pid] = bytes(PAGE_CAPACITY)
        return pid

    @rule(page=pages, fill=st.integers(min_value=0, max_value=255))
    def write(self, page, fill):
        # callers own only the first PAGE_CAPACITY bytes; the trailer
        # belongs to the pager's checksum
        data = bytes([fill]) * PAGE_CAPACITY + bytes(PAGE_SIZE - PAGE_CAPACITY)
        self.pager.write(page, data)
        self.model[page] = data[:PAGE_CAPACITY]

    @rule(page=pages)
    def read(self, page):
        assert self.pager.read(page)[:PAGE_CAPACITY] == self.model[page]

    @rule()
    def drop_cache(self):
        self.pager.drop_cache()

    @rule()
    def flush(self):
        self.pager.flush()

    @invariant()
    def page_count_consistent(self):
        assert self.pager.n_pages == len(self.model)

    def teardown(self):
        self.pager.close()
        if os.path.exists(self.path):
            os.unlink(self.path)


class HeapsMachine(RuleBasedStateMachine):
    """Interleaved appends/reads across several heaps sharing one pager."""

    WIDTHS = (2, 6, 8)

    def __init__(self):
        super().__init__()
        fd, self.path = tempfile.mkstemp(suffix=".pages")
        os.close(fd)
        os.unlink(self.path)
        self.pager = Pager(self.path, cache_pages=4)
        self.heaps = {w: HeapFile(self.pager, w) for w in self.WIDTHS}
        self.models = {w: [] for w in self.WIDTHS}
        self.rids = {w: [] for w in self.WIDTHS}

    @rule(
        width=st.sampled_from(WIDTHS),
        value=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
    def append(self, width, value):
        row = tuple(value + i for i in range(width))
        rid = self.heaps[width].append(row)
        self.models[width].append(row)
        self.rids[width].append(rid)

    @rule(width=st.sampled_from(WIDTHS), idx=st.integers(min_value=0, max_value=10_000))
    def random_access(self, width, idx):
        if not self.rids[width]:
            return
        idx %= len(self.rids[width])
        assert self.heaps[width].get(self.rids[width][idx]) == self.models[width][idx]

    @rule()
    def drop_cache(self):
        self.pager.drop_cache()

    @invariant()
    def scans_match_models(self):
        for width in self.WIDTHS:
            rows = [row for _rid, row in self.heaps[width].scan()]
            assert rows == self.models[width]

    def teardown(self):
        self.pager.close()
        if os.path.exists(self.path):
            os.unlink(self.path)


class CrashRecoveryMachine(RuleBasedStateMachine):
    """Random interleavings of transactional inserts, simulated power
    cuts at arbitrary write ops, reopen+recovery, and fsck — checked
    against the list of rows whose transactions committed.

    After a crash the database may legitimately be in one of two states:
    the last committed snapshot, or (when the cut hit after the commit
    record reached disk but before control returned) the in-flight
    transaction's state.  Anything else — partial transactions, corrupt
    pages, fsck complaints — is a bug.
    """

    WIDTH = 4

    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp()
        self.path = os.path.join(self.dir, "db.mdb")
        self.injector = FaultInjector()
        self.db = MiniDatabase(
            self.path, cache_pages=3, fs=self.injector
        )
        with self.db.transaction():
            self.db.create_table("t", self.WIDTH)
        self.committed = []  # rows of committed transactions, in order
        self.next_val = 0

    def _rows(self, n):
        base = self.next_val
        self.next_val += n
        return [
            (float(base + i), 1.0, 2.0, 3.0) for i in range(n)
        ]

    def _insert_txn(self, rows):
        with self.db.transaction():
            t = self.db.table("t")
            for r in rows:
                t.insert(r)

    def _recover(self, pending):
        """Reopen after a simulated power cut and validate the state."""
        self.injector.close_all()
        self.injector = FaultInjector()
        self.db = MiniDatabase(
            self.path, cache_pages=3, fs=self.injector
        )
        assert self.db.check() == []
        rows_now = [r for _rid, r in self.db.table("t").scan()]
        assert rows_now in (self.committed, self.committed + pending), (
            "recovered state is not a committed prefix"
        )
        self.committed = rows_now

    @rule(n=st.integers(min_value=1, max_value=30))
    def insert_batch(self, n):
        rows = self._rows(n)
        try:
            self._insert_txn(rows)
        except FaultInjected:  # a leftover armed fault fired
            self._recover(rows)
        else:
            self.committed.extend(rows)

    @rule(
        n=st.integers(min_value=1, max_value=30),
        offset=st.integers(min_value=1, max_value=40),
        mode=st.sampled_from(["crash", "torn"]),
        torn_bytes=st.integers(min_value=1, max_value=PAGE_SIZE),
    )
    def crash_during_batch(self, n, offset, mode, torn_bytes):
        self.injector.arm(
            FaultPolicy(
                fail_at=self.injector.op_count + offset,
                mode=mode,
                torn_bytes=torn_bytes,
            )
        )
        rows = self._rows(n)
        try:
            self._insert_txn(rows)
        except FaultInjected:
            self._recover(rows)
        else:
            self.committed.extend(rows)
            self.injector.arm(FaultPolicy())  # disarm: it never fired

    @rule()
    def checkpoint(self):
        self.db.checkpoint()

    @rule()
    def clean_reopen(self):
        self.db.close()
        self.injector.close_all()
        self.injector = FaultInjector()
        self.db = MiniDatabase(
            self.path, cache_pages=3, fs=self.injector
        )

    @rule()
    def fsck(self):
        assert self.db.check() == []

    @invariant()
    def committed_rows_visible(self):
        rows = [r for _rid, r in self.db.table("t").scan()]
        assert rows == self.committed

    def teardown(self):
        try:
            self.db.close()
        except FaultInjected:
            pass
        self.injector.close_all()


TestPagerMachine = pytest.mark.filterwarnings("ignore")(
    PagerMachine.TestCase
)
TestPagerMachine.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)

TestHeapsMachine = HeapsMachine.TestCase
TestHeapsMachine.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)

TestCrashRecoveryMachine = pytest.mark.filterwarnings("ignore")(
    CrashRecoveryMachine.TestCase
)
TestCrashRecoveryMachine.settings = settings(
    max_examples=25, stateful_step_count=25, deadline=None
)

"""Tests for streaming checkpoint/resume of SegDiffIndex.

A resumed index must produce exactly the features a never-interrupted
build would have produced: same segments, same search results, no
duplicated or missing pairs.
"""

import math

import numpy as np
import pytest

from repro.core.index import SegDiffIndex
from repro.core.live import LiveIndex
from repro.datagen.series import TimeSeries
from repro.errors import StorageError
from repro.storage.partitions import FEATURE_TABLES
from repro.storage.sqlite_store import SqliteFeatureStore

EPS = 0.2
WINDOW = 8 * 3600.0


def make_series(n=1500):
    ts = [float(i * 60) for i in range(n)]
    vs = [
        math.sin(i / 25.0) * 4.0 + (0.0 if i < n * 3 // 4 else -7.0)
        for i in range(n)
    ]
    return TimeSeries(ts, vs, name="resume-test")


@pytest.fixture
def series():
    return make_series()


def build_interrupted(path, series, stop_at):
    """Ingest a prefix, checkpoint, then 'crash' without closing."""
    index = SegDiffIndex(EPS, WINDOW, SqliteFeatureStore(path))
    for t, v in zip(series.times[:stop_at], series.values[:stop_at]):
        index.append(float(t), float(v))
    index.checkpoint()
    # simulate the process dying: drop the connection, skip close()
    index.store._conn.close()


#: Observation index the gapped stream breaks an episode before.
GAP_AT = 600


def gapped_events(series):
    """The stream as ``(t, v)`` events with one ``None`` (``mark_gap``)
    before observation ``GAP_AT``, after which times jump 6 h."""
    events = []
    for i, (t, v) in enumerate(zip(series.times, series.values)):
        if i == GAP_AT:
            events.append(None)
        events.append((float(t) + (6 * 3600.0 if i >= GAP_AT else 0.0),
                       float(v)))
    return events


def play(index, events, cut=0):
    """Feed ``events``; a gap marker before ``cut`` was already
    delivered before the interruption and is not repeated."""
    for i, event in enumerate(events):
        if event is None:
            if i >= cut:
                index.mark_gap()
        else:
            index.append(*event)


def sorted_rows(stores):
    """Every feature row of ``stores``, per table, in a canonical order
    (sealed MiniDB partitions store rows key-ordered)."""
    out = {}
    for table in FEATURE_TABLES:
        rows = np.concatenate(
            [np.asarray(s.read_table_rows(table), dtype=float).reshape(
                -1, 6 if table.endswith("points") else 8)
             for s in stores]
        )
        out[table] = rows[np.lexsort(rows.T[::-1])]
    return out


class TestResume:
    @pytest.mark.parametrize("stop_at", [100, 700, 1400])
    def test_resumed_equals_uninterrupted(self, tmp_path, series, stop_at):
        ref = SegDiffIndex.build(
            series, EPS, WINDOW, backend="sqlite",
            path=str(tmp_path / "ref.sqlite"),
        )
        ref_pairs = set(ref.search_drops(3600.0, -3.0))
        ref_segments = ref.segments
        ref.close()

        path = str(tmp_path / "crashed.sqlite")
        build_interrupted(path, series, stop_at)
        resumed = SegDiffIndex.resume(path)
        # replay the WHOLE stream: duplicates must be skipped
        resumed.ingest(series)
        resumed.finalize()
        try:
            assert resumed.segments == ref_segments
            assert set(resumed.search_drops(3600.0, -3.0)) == ref_pairs
            assert resumed.n_observations == len(series)
        finally:
            resumed.close()

    @pytest.mark.parametrize("cut", [100, 700, 1400, "gap"])
    @pytest.mark.parametrize("owner", ["segdiff", "live-wal", "live-nowal"])
    def test_every_owner_resumes_like_uninterrupted(
        self, tmp_path, series, owner, cut
    ):
        """Both owners of the stream writer, checkpointed (or sealed)
        at the same cut points and at an episode break, resume to
        exactly the uninterrupted run's segments and feature rows."""
        events = gapped_events(series)
        # event index of the cut: past the gap marker once beyond it
        cut = GAP_AT + 1 if cut == "gap" else cut + (cut >= GAP_AT)
        ref = SegDiffIndex(EPS, WINDOW)
        play(ref, events)
        ref.finalize()

        if owner == "segdiff":
            path = str(tmp_path / "c.sqlite")
            index = SegDiffIndex(EPS, WINDOW, SqliteFeatureStore(path))
            play(index, events[:cut])
            index.checkpoint()
            index.store._conn.close()  # crash
            resumed = SegDiffIndex.resume(path)
            play(resumed, events, cut)
            resumed.finalize()
            segments, stores = resumed.segments, [resumed.store]
        else:
            d = str(tmp_path / "live.d")
            wal = owner == "live-wal"
            live = LiveIndex(EPS, WINDOW, directory=d, wal=wal)
            play(live, events[:cut])
            live.seal()
            live.close()
            resumed = LiveIndex.open(d, wal=wal)
            play(resumed, events, cut)
            resumed.finalize()
            stores = [p.store for p in resumed._sealed]
            segments = [seg for s in stores for seg in s.load_segments()]
        try:
            assert segments == ref.segments
            assert resumed.n_observations == ref.n_observations
            got, want = sorted_rows(stores), sorted_rows([ref.store])
            for table in FEATURE_TABLES:
                assert np.array_equal(got[table], want[table]), table
        finally:
            resumed.close()
            ref.close()

    def test_resume_then_open(self, tmp_path, series):
        path = str(tmp_path / "c.sqlite")
        build_interrupted(path, series, 800)
        resumed = SegDiffIndex.resume(path)
        resumed.ingest(series)
        resumed.finalize()
        n_pairs = len(resumed.search_drops(3600.0, -3.0))
        resumed.close()

        reopened = SegDiffIndex.open(path)
        try:
            assert len(reopened.search_drops(3600.0, -3.0)) == n_pairs
        finally:
            reopened.close()

    def test_multiple_checkpoints_and_crashes(self, tmp_path, series):
        """Crash, resume, crash again, resume again — still exact."""
        path = str(tmp_path / "c.sqlite")
        build_interrupted(path, series, 400)
        mid = SegDiffIndex.resume(path)
        for t, v in zip(series.times[:900], series.values[:900]):
            mid.append(float(t), float(v))
        mid.checkpoint()
        mid.store._conn.close()

        final = SegDiffIndex.resume(path)
        final.ingest(series)
        final.finalize()
        ref = SegDiffIndex.build(series, EPS, WINDOW)
        try:
            assert set(final.search_drops(3600.0, -3.0)) == set(
                ref.search_drops(3600.0, -3.0)
            )
        finally:
            final.close()
            ref.close()


class TestResumeGuards:
    def test_resume_sealed_index_rejected(self, tmp_path, series):
        path = str(tmp_path / "sealed.sqlite")
        SegDiffIndex.build(
            series, EPS, WINDOW, backend="sqlite", path=path
        ).close()
        with pytest.raises(StorageError, match="sealed"):
            SegDiffIndex.resume(path)

    def test_open_checkpoint_rejected(self, tmp_path, series):
        path = str(tmp_path / "ck.sqlite")
        build_interrupted(path, series, 500)
        with pytest.raises(StorageError, match="checkpoint"):
            SegDiffIndex.open(path)

    def test_resume_without_metadata_rejected(self, tmp_path):
        path = str(tmp_path / "empty.sqlite")
        SqliteFeatureStore(path).close()
        with pytest.raises(StorageError, match="metadata"):
            SegDiffIndex.resume(path)

    def test_resume_unknown_backend_rejected(self, tmp_path):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError, match="backend"):
            SegDiffIndex.resume(str(tmp_path / "x"), backend="papyrus")

    def test_checkpointed_n_observations_counts_covered_only(
        self, tmp_path, series
    ):
        """The checkpoint claims only observations inside closed
        segments, so a full replay never double-counts."""
        path = str(tmp_path / "c.sqlite")
        build_interrupted(path, series, 1000)
        resumed = SegDiffIndex.resume(path)
        resumed.ingest(series)
        resumed.finalize()
        try:
            assert resumed.n_observations == len(series)
        finally:
            resumed.close()


class TestMidStreamCrash:
    """Crashes at arbitrary points BETWEEN checkpoints.

    The durable state must roll back to the last checkpoint exactly — a
    commit sneaking in between checkpoints (e.g. from a feature-buffer
    flush) can persist a segment without all of its pairs, which a
    resume can never repair.  Found by killing a real CLI build mid-
    flight: the resumed index was missing feature rows.
    """

    def test_sqlite_crash_between_checkpoints_is_exact(
        self, tmp_path, series
    ):
        ref = SegDiffIndex.build(
            series, EPS, WINDOW, backend="sqlite",
            path=str(tmp_path / "ref.sqlite"),
        )
        ref_counts = ref.store.counts().total
        ref_pairs = set(ref.search_drops(3600.0, -3.0))
        ref_segments = ref.segments
        ref.close()

        path = str(tmp_path / "crashed.sqlite")
        index = SegDiffIndex(EPS, WINDOW, SqliteFeatureStore(path))
        for i, (t, v) in enumerate(zip(series.times, series.values)):
            index.append(float(t), float(v))
            if i > 0 and i % 200 == 0:
                index.checkpoint()
            if i == 1337:  # well past the last checkpoint at i=1200
                break
        # crash: close the connection, discarding uncommitted work
        index.store._conn.close()

        resumed = SegDiffIndex.resume(path)
        resumed.ingest(series)
        resumed.finalize()
        try:
            assert resumed.segments == ref_segments
            assert resumed.n_observations == len(series)
            assert resumed.store.counts().total == ref_counts
            assert set(resumed.search_drops(3600.0, -3.0)) == ref_pairs
        finally:
            resumed.close()

    def test_minidb_crash_between_checkpoints_is_exact(
        self, tmp_path, series
    ):
        from repro.storage.minidb import MiniDbFeatureStore

        ref = SegDiffIndex.build(series, EPS, WINDOW)
        ref_counts = ref.store.counts().total
        ref_pairs = set(ref.search_drops(3600.0, -3.0))
        ref_segments = ref.segments

        path = str(tmp_path / "crashed.mdb")
        index = SegDiffIndex(EPS, WINDOW, MiniDbFeatureStore(path))
        for i, (t, v) in enumerate(zip(series.times, series.values)):
            index.append(float(t), float(v))
            if i > 0 and i % 200 == 0:
                index.checkpoint()
            if i == 1337:
                break
        # crash: drop the raw file handles without any flush/commit
        index.store.db.pager._file.close()
        index.store.db.pager.wal._log.file.close()

        resumed = SegDiffIndex.resume(path, backend="minidb")
        resumed.ingest(series)
        resumed.finalize()
        try:
            assert resumed.segments == ref_segments
            assert resumed.n_observations == len(series)
            assert resumed.store.counts().total == ref_counts
            assert set(resumed.search_drops(3600.0, -3.0)) == ref_pairs
        finally:
            resumed.close()
            ref.close()


class TestResumeMinidb:
    def test_resume_minidb_backend(self, tmp_path, series):
        from repro.storage.minidb import MiniDbFeatureStore

        path = str(tmp_path / "c.mdb")
        index = SegDiffIndex(EPS, WINDOW, MiniDbFeatureStore(path))
        for t, v in zip(series.times[:800], series.values[:800]):
            index.append(float(t), float(v))
        index.checkpoint()
        # "crash": close the pager without the store's cleanup
        index.store.db.pager.close()

        resumed = SegDiffIndex.resume(path, backend="minidb")
        resumed.ingest(series)
        resumed.finalize()
        ref = SegDiffIndex.build(series, EPS, WINDOW)
        try:
            assert resumed.segments == ref.segments
            assert set(resumed.search_drops(3600.0, -3.0)) == set(
                ref.search_drops(3600.0, -3.0)
            )
        finally:
            resumed.close()
            ref.close()

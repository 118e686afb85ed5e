"""Tests for streaming checkpoint/resume of SegDiffIndex.

A resumed index must produce exactly the features a never-interrupted
build would have produced: same segments, same search results, no
duplicated or missing pairs.
"""

import math

import pytest

from repro.core.index import SegDiffIndex
from repro.datagen.series import TimeSeries
from repro.errors import StorageError
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
            assert resumed._n_observations == len(series)
        finally:
            resumed.close()

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
            assert resumed._n_observations == len(series)
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
            assert resumed._n_observations == len(series)
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
            assert resumed._n_observations == len(series)
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

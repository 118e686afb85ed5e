"""Validate-before-side-effect tests for the one stream writer.

Both owners of :class:`repro.core.stream.StreamWriter` — the batch
:class:`SegDiffIndex` and the live :class:`LiveIndex` — must refuse a bad
append before it changes anything: no count, no segmenter or extractor
state, and (for the live index) no ``hot.wal`` frame that would make the
directory fail to reopen.
"""

import math
import os

import numpy as np
import pytest

from repro.core.index import SegDiffIndex
from repro.core.live import LiveIndex
from repro.errors import InvalidSeriesError
from repro.obs import recorder as flight
from repro.storage.livewal import WAL_NAME, LiveWAL
from repro.storage.minidb import MiniDbFeatureStore
from repro.storage.partitions import FEATURE_TABLES

from .test_resume import sorted_rows

EPS = 0.2
WINDOW = 8 * 3600.0
N = 3000


def make_stream(n=N, seed=11):
    rng = np.random.default_rng(seed)
    ts = 60.0 * np.arange(1, n + 1, dtype=float)
    vs = np.cumsum(rng.normal(0.0, 0.3, n))
    return ts, vs


#: The bad calls, each given the time ``t`` of the last good observation.
BAD_INPUTS = {
    "array-not-increasing": lambda ix, t: _append_array(
        ix, [t + 60, t + 120, t + 90], [0.0, 0.0, 0.0]),
    "array-nan-value": lambda ix, t: _append_array(
        ix, [t + 60, t + 120], [0.0, math.nan]),
    "array-inf-time": lambda ix, t: _append_array(
        ix, [t + 60, math.inf], [0.0, 0.0]),
    "scalar-not-increasing": lambda ix, t: ix.append(t - 30.0, 0.0),
    "scalar-nan-time": lambda ix, t: ix.append(math.nan, 0.0),
}


def _append_array(index, ts, vs):
    if isinstance(index, LiveIndex):
        index.append_array(ts, vs)
    else:
        index.ingest_array(ts, vs)


def assert_same_rows(stores, ref):
    got, want = sorted_rows(stores), sorted_rows([ref.store])
    for table in FEATURE_TABLES:
        assert np.array_equal(got[table], want[table]), table


def reference(ts, vs):
    ref = SegDiffIndex(EPS, WINDOW)
    ref.ingest_array(ts, vs)
    ref.finalize()
    return ref


@pytest.mark.parametrize("bad", sorted(BAD_INPUTS))
class TestRejectedAppendChangesNothing:
    def test_segdiff_index(self, tmp_path, bad):
        ts, vs = make_stream()
        path = str(tmp_path / "i.mdb")
        index = SegDiffIndex(EPS, WINDOW, MiniDbFeatureStore(path))
        index.ingest_array(ts[:-1], vs[:-1])
        n_before = index.n_observations
        segments = index.segments
        with pytest.raises(InvalidSeriesError):
            BAD_INPUTS[bad](index, float(ts[-2]))
        assert index.n_observations == n_before
        assert index.segments == segments
        # the stream continues where the good observations left it
        index.append(float(ts[-1]), float(vs[-1]))
        assert index.n_observations == n_before + 1
        index.finalize()
        index.close()

        reopened = SegDiffIndex.open(path)
        ref = reference(ts, vs)
        try:
            assert reopened.n_observations == N
            assert reopened.segments == ref.segments
            assert_same_rows([reopened.store], ref)
        finally:
            reopened.close()
            ref.close()

    def test_live_index(self, tmp_path, bad):
        ts, vs = make_stream()
        d = str(tmp_path / "live.d")
        live = LiveIndex(EPS, WINDOW, directory=d, backend="minidb")
        live.append_array(ts[:-1], vs[:-1])
        n_before = live.n_observations
        wal_bytes = os.path.getsize(os.path.join(d, WAL_NAME))
        with pytest.raises(InvalidSeriesError):
            BAD_INPUTS[bad](live, float(ts[-2]))
        assert live.n_observations == n_before
        assert os.path.getsize(os.path.join(d, WAL_NAME)) == wal_bytes
        live.close()

        reopened = LiveIndex.open(d)
        try:
            assert reopened.n_observations == n_before
            reopened.append(float(ts[-1]), float(vs[-1]))
            reopened.finalize()
            assert reopened.n_observations == N
            ref = reference(ts, vs)
            try:
                assert_same_rows([p.store for p in reopened._sealed], ref)
            finally:
                ref.close()
        finally:
            reopened.close()


class TestWalBadFrame:
    def test_replay_skips_and_counts_a_bad_frame(self, tmp_path):
        """A frame an older writer logged before validating is skipped
        on replay; the frames after it replay as usual."""
        ts, vs = make_stream(n=600)
        d = str(tmp_path / "live.d")
        live = LiveIndex(EPS, WINDOW, directory=d, backend="minidb")
        live.append_array(ts[:400], vs[:400])
        live.close()
        wal = LiveWAL(os.path.join(d, WAL_NAME))
        wal.append(np.array([ts[400], ts[400] - 1.0]), np.zeros(2))
        wal.append(ts[400:], vs[400:])
        wal.close()

        flight.clear()
        reopened = LiveIndex.open(d)
        try:
            (event,) = [e for e in flight.tail() if e.category == "wal_replay"]
            assert event.attrs["rejected_frames"] == 1
            assert reopened.n_observations == 600
            reopened.finalize()
            ref = reference(ts, vs)
            try:
                assert_same_rows([p.store for p in reopened._sealed], ref)
            finally:
                ref.close()
        finally:
            reopened.close()

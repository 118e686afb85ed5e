"""Unit tests for the partition tier primitives (storage layer).

Covers the manifest's atomic generation-stamped transitions, the sound
time-pruning predicate, pin-counted deferred disposal, and the
seal/compaction copy path.
"""

import json
import os

import numpy as np
import pytest

from repro.core.index import SegDiffIndex
from repro.errors import InvalidParameterError, StorageError
from repro.obs.metrics import REGISTRY
from repro.storage.memory_store import MemoryFeatureStore
from repro.storage.partitions import (
    FEATURE_TABLES,
    MANIFEST_NAME,
    Partition,
    PartitionManifest,
    PartitionSpec,
    copy_store_into,
)


def spec(pid="p000000", t_min=0.0, t_max=100.0, fmin=None, fmax=None,
         rows=10, n_segments=3, file=None):
    return PartitionSpec(
        partition_id=pid,
        t_min=t_min,
        t_max=t_max,
        feature_t_min=t_min if fmin is None else fmin,
        feature_t_max=t_max if fmax is None else fmax,
        rows=rows,
        n_segments=n_segments,
        file=file,
    )


class TestPartitionSpec:
    def test_overlaps_time_none_is_unrestricted(self):
        assert spec().overlaps_time(None)

    @pytest.mark.parametrize(
        "t_range,expected",
        [
            ((0.0, 100.0), True),     # exact cover
            ((50.0, 60.0), True),     # inside
            ((-10.0, 0.0), True),     # touches left edge (closed)
            ((100.0, 200.0), True),   # touches right edge (closed)
            ((-10.0, -1.0), False),   # fully left
            ((101.0, 200.0), False),  # fully right
        ],
    )
    def test_overlaps_time(self, t_range, expected):
        assert spec().overlaps_time(t_range) is expected

    def test_feature_bounds_drive_pruning_not_observation_bounds(self):
        # pairs reach back up to a window before the partition's own
        # segments: pruning must use the feature extent
        s = spec(t_min=50.0, t_max=100.0, fmin=20.0, fmax=100.0)
        assert s.overlaps_time((25.0, 30.0))
        assert not s.overlaps_time((0.0, 10.0))

    def test_json_roundtrip(self):
        s = spec(file="p000000.sqlite")
        assert PartitionSpec.from_json(s.to_json()) == s


class TestManifest:
    def test_save_load_roundtrip(self, tmp_path):
        m = PartitionManifest(epsilon=0.2, window=3600.0)
        m = m.with_sealed(spec(), watermark=100.0, n_observations=42)
        m.save(str(tmp_path))
        loaded = PartitionManifest.load(str(tmp_path))
        assert loaded == m
        assert not os.path.exists(
            os.path.join(str(tmp_path), MANIFEST_NAME + ".tmp")
        )

    def test_transitions_bump_generation(self):
        m = PartitionManifest(epsilon=0.2, window=3600.0)
        m1 = m.with_sealed(spec("a"), 100.0, 10)
        m2 = m1.with_sealed(spec("b", 100.0, 200.0), 200.0, 20)
        m3 = m2.with_replaced(["a", "b"], spec("c", 0.0, 200.0))
        m4 = m3.with_dropped(["c"])
        m5 = m4.with_finalized()
        assert [x.generation for x in (m, m1, m2, m3, m4, m5)] == list(range(6))
        assert m2.watermark == 200.0 and m2.n_observations == 20
        assert [s.partition_id for s in m3.partitions] == ["c"]
        assert m4.partitions == ()
        assert m5.finalized

    def test_with_replaced_unknown_ids_raises(self):
        m = PartitionManifest(epsilon=0.2, window=3600.0)
        with pytest.raises(InvalidParameterError):
            m.with_replaced(["nope"], spec())

    def test_load_missing_or_bad_version_raises(self, tmp_path):
        with pytest.raises(StorageError):
            PartitionManifest.load(str(tmp_path))
        path = os.path.join(str(tmp_path), MANIFEST_NAME)
        with open(path, "w") as fh:
            json.dump({"version": 999}, fh)
        with pytest.raises(StorageError):
            PartitionManifest.load(str(tmp_path))

    def test_exists_and_listed_files(self, tmp_path):
        assert not PartitionManifest.exists(str(tmp_path))
        m = PartitionManifest(epsilon=0.2, window=3600.0)
        m = m.with_sealed(spec(file="p000000.sqlite"), 100.0, 1)
        m = m.with_sealed(spec("p1", 100.0, 200.0), 200.0, 2)  # in-memory
        m.save(str(tmp_path))
        assert PartitionManifest.exists(str(tmp_path))
        assert m.listed_files() == ["p000000.sqlite"]


class TestPartitionPinning:
    def _partition(self, tmp_path, counted=False):
        path = os.path.join(str(tmp_path), "p000000.bin")
        with open(path, "wb") as fh:
            fh.write(b"payload")
        store = MemoryFeatureStore()
        store.finalize()
        return Partition(spec(file="p000000.bin"), store, path=path,
                         counted=counted), path

    def test_retire_defers_disposal_to_last_pin(self, tmp_path):
        part, path = self._partition(tmp_path)
        part.pin()
        part.pin()
        part.retire()
        assert part.retired
        assert os.path.exists(path)  # two readers still pinned
        part.release()
        assert os.path.exists(path)
        part.release()
        assert not os.path.exists(path)  # last pin gone -> disposed
        with pytest.raises(StorageError):
            part.pin()

    def test_retire_unpinned_disposes_immediately(self, tmp_path):
        part, path = self._partition(tmp_path)
        part.retire()
        assert not os.path.exists(path)

    def test_over_release_raises(self, tmp_path):
        part, _ = self._partition(tmp_path)
        with pytest.raises(StorageError):
            part.release()

    def test_retire_is_idempotent_for_the_gauge(self, tmp_path):
        gauge = lambda: REGISTRY.snapshot().get("repro_partitions_active", 0.0)
        before = gauge()
        part, _ = self._partition(tmp_path, counted=True)
        assert gauge() == before + 1
        part.retire()
        part.retire()
        part.close()
        assert gauge() == before

    def test_retire_drops_cached_session(self, tmp_path):
        part, _ = self._partition(tmp_path)
        part.pin()  # keep alive past retire
        session = part.session()
        assert part.session() is session  # cached
        part.retire()
        assert part._session is None  # stale samples dropped with it
        part.release()


class TestCopyStoreInto:
    def test_copy_preserves_rows_and_segments(self):
        rng = np.random.default_rng(7)
        ts = np.cumsum(rng.uniform(30.0, 300.0, 120))
        vs = np.cumsum(rng.normal(0.0, 1.5, 120))
        src_index = SegDiffIndex(0.5, 4 * 3600.0)
        for t, v in zip(ts, vs):
            src_index.append(float(t), float(v))
        src_index.finalize()

        dest = MemoryFeatureStore()
        copied = copy_store_into([src_index.store], dest)

        total = 0
        for table in FEATURE_TABLES:
            a = src_index.store.read_table_rows(table)
            b = dest.read_table_rows(table)
            assert np.array_equal(a, b), table
            total += a.shape[0]
        assert copied == total
        assert dest.load_segments() == src_index.store.load_segments()
        src_index.close()
        dest.close()

    def test_concatenation_order_is_source_order(self):
        # two halves copied in order must equal the one-store layout
        rng = np.random.default_rng(11)
        ts = np.cumsum(rng.uniform(30.0, 300.0, 160))
        vs = np.cumsum(rng.normal(0.0, 1.5, 160))
        whole = SegDiffIndex(0.5, 4 * 3600.0)
        for t, v in zip(ts, vs):
            whole.append(float(t), float(v))
        whole.finalize()

        # split the *stored rows* at an arbitrary byte-identical boundary
        # by copying through two intermediate stores
        half_a, half_b = MemoryFeatureStore(), MemoryFeatureStore()
        for table in FEATURE_TABLES:
            rows = whole.store.read_table_rows(table)
            cut = rows.shape[0] // 2

            class _Batch:
                pass

            for dest_store, part_rows in ((half_a, rows[:cut]),
                                          (half_b, rows[cut:])):
                batch = _Batch()
                for name in FEATURE_TABLES:
                    width = 6 if name.endswith("points") else 8
                    setattr(batch, name, np.empty((0, width)))
                setattr(batch, table, part_rows)
                dest_store.add_features_bulk(batch)
        half_a.finalize()
        half_b.finalize()

        merged = MemoryFeatureStore()
        copy_store_into([half_a, half_b], merged)
        for table in FEATURE_TABLES:
            assert np.array_equal(
                merged.read_table_rows(table),
                whole.store.read_table_rows(table),
            ), table
        for s in (half_a, half_b, merged):
            s.close()
        whole.close()


# ---------------------------------------------------------------------- #
# manifests are bytes from disk: valid JSON of the wrong shape
# ---------------------------------------------------------------------- #


def _good_partition_manifest():
    m = PartitionManifest(epsilon=0.2, window=3600.0).with_sealed(
        spec(file="p000000.sqlite"), watermark=100.0, n_observations=10
    )
    return m.to_json()


def _good_shard_manifest():
    return {
        "epsilon": 0.2,
        "window": 3600.0,
        "shards": [{
            "shard_id": "s0", "t_min": 0.0, "t_max": 100.0,
            "sensor": "s0", "replicas": ["s0-r0.sqlite"],
        }],
    }


def _load_partition_manifest(directory):
    return PartitionManifest.load(directory)


def _open_shard_manifest(directory):
    from repro.engine import ShardedIndex

    return ShardedIndex.open(directory)


def _drop(*path):
    def mutate(obj):
        for key in path[:-1]:
            obj = obj[key]
        del obj[path[-1]]
    return mutate


def _put(value, *path):
    def mutate(obj):
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
    return mutate


MALFORMED = [
    # (manifest, case, mutation or replacement, what the error names)
    ("partitions", "top-level list", lambda obj: [], "object"),
    ("partitions", "missing key", _drop("generation"), "generation"),
    ("partitions", "wrong type", _put([1], "epsilon"), "epsilon"),
    ("partitions", "partitions not a list", _put(5, "partitions"),
     "partitions"),
    ("partitions", "entry not an object", _put([7], "partitions"),
     "partition_id"),
    ("partitions", "entry missing a bound", _drop("partitions", 0, "t_min"),
     "t_min"),
    ("partitions", "entry bound mistyped",
     _put("soon", "partitions", 0, "feature_t_max"), "feature_t_max"),
    ("shards", "top-level list", lambda obj: [], "object"),
    ("shards", "missing key", _drop("shards"), "shards"),
    ("shards", "wrong type", _put("wide", "window"), "window"),
    ("shards", "no shards", _put([], "shards"), "shards"),
    ("shards", "entry missing a bound", _drop("shards", 0, "t_min"),
     "t_min"),
    ("shards", "replicas not a list",
     _put("s0-r0.sqlite", "shards", 0, "replicas"), "replicas"),
    ("shards", "replica not a file name", _put([3], "shards", 0, "replicas"),
     "replicas"),
    ("shards", "no replicas", _put([], "shards", 0, "replicas"),
     "replicas"),
]


class TestMalformedManifests:
    """ROADMAP "Fix first": a manifest of the wrong shape used to escape
    as ``AttributeError`` / ``KeyError`` / ``TypeError``."""

    @pytest.mark.parametrize(
        "which,case,mutate,named", MALFORMED,
        ids=[f"{m[0]}-{m[1].replace(' ', '_')}" for m in MALFORMED],
    )
    def test_wrong_shape_is_a_corruption_error(
        self, tmp_path, which, case, mutate, named
    ):
        from repro.errors import CorruptionError

        if which == "partitions":
            name, obj, load = (
                MANIFEST_NAME, _good_partition_manifest(),
                _load_partition_manifest,
            )
        else:
            name, obj, load = (
                "manifest.json", _good_shard_manifest(),
                _open_shard_manifest,
            )
        replaced = mutate(obj)
        path = os.path.join(str(tmp_path), name)
        with open(path, "w") as fh:
            json.dump(obj if replaced is None else replaced, fh)
        with pytest.raises(CorruptionError) as err:
            load(str(tmp_path))
        # the error names the file and the offending field
        assert path in str(err.value)
        assert named in str(err.value)

    def test_good_manifests_still_load(self, tmp_path):
        path = os.path.join(str(tmp_path), MANIFEST_NAME)
        with open(path, "w") as fh:
            json.dump(_good_partition_manifest(), fh)
        loaded = PartitionManifest.load(str(tmp_path))
        assert loaded.partitions[0].file == "p000000.sqlite"
        assert loaded.watermark == 100.0

"""Unit tests for the out-of-core substrate: formats, sessions, spills,
the disk dict, and the part store."""

import os
import pickle
import re

import pytest

from repro.common.hashing import partition_index, stable_hash
from repro.iterations.solution_set import (
    DiskBackedSolutionSetIndex,
    SolutionSetIndex,
)
from repro.runtime.metrics import MetricsCollector
from repro.storage import (
    DiskDict,
    DiskPartitionView,
    PartStore,
    SpillManager,
    StorageFormatError,
    StorageSession,
    content_hash,
)
from repro.storage.format import (
    MAGIC,
    read_header,
    write_frame,
    write_header,
)


@pytest.fixture
def session():
    with StorageSession() as sess:
        yield sess


def manager(session, budget=1_000_000, metrics=None):
    return SpillManager(budget, session, metrics=metrics)


class TestFormatStamps:
    def test_spill_file_roundtrip(self, session):
        spill = manager(session).new_spill_file("unit")
        spill.append([(1, "a"), (2, "b")])
        spill.append([(3, "c")])
        assert spill.read_entries() == [(1, "a"), (2, "b"), (3, "c")]
        assert spill.frames == 2
        assert spill.records == 3

    def test_wrong_magic_fails_loudly(self, session):
        path = session.new_file("bad")
        with open(path, "wb") as fh:
            fh.write(b"JUNK\x01rest of the file")
        spill = manager(session).new_spill_file("ok")
        spill.path = path
        with pytest.raises(StorageFormatError, match="bad magic"):
            spill.read_entries()

    def test_version_mismatch_fails_loudly(self, session):
        path = session.new_file("future")
        with open(path, "wb") as fh:
            fh.write(MAGIC + bytes([99]))
        spill = manager(session).new_spill_file("ok")
        spill.path = path
        with pytest.raises(StorageFormatError, match="version 99"):
            spill.read_entries()

    def test_truncated_frame_is_detected(self, session):
        spill = manager(session).new_spill_file("torn")
        spill.append([(1, "payload")])
        spill.finish()
        size = os.path.getsize(spill.path)
        with open(spill.path, "r+b") as fh:
            fh.truncate(size - 3)
        with pytest.raises(StorageFormatError, match="truncated"):
            spill.read_entries()

    def test_log_header_helpers_roundtrip(self, session):
        path = session.new_file("log")
        with open(path, "wb") as fh:
            write_header(fh)
        with open(path, "rb") as fh:
            read_header(fh, path)  # must not raise


class TestSpillManagerAccounting:
    def test_reserve_release_and_peak(self, session):
        m = manager(session, budget=100)
        m.reserve(80)
        assert not m.over_budget()
        m.reserve(40)
        assert m.over_budget()
        assert m.peak_tracked_bytes == 120
        m.release(60)
        assert m.tracked_bytes == 60
        m.release(1000)  # estimates are defensive-clamped, never negative
        assert m.tracked_bytes == 0
        assert m.peak_tracked_bytes == 120

    def test_note_spill_feeds_metrics(self, session):
        metrics = MetricsCollector()
        m = manager(session, metrics=metrics)
        m.note_spill("op", records=5, nbytes=123)
        assert (m.records_spilled, m.bytes_spilled) == (5, 123)
        assert (metrics.records_spilled, metrics.bytes_spilled) == (5, 123)

    def test_budget_must_be_positive(self, session):
        with pytest.raises(ValueError):
            SpillManager(0, session)

    @pytest.mark.parametrize("strategy", ["hash", "sort"])
    def test_spill_io_runs_in_storage_spans(self, session, strategy):
        """Spill writes and read-backs are storage spans nested in the
        operator's span, carrying the spilled counters — so their time
        leaves the operator's self time."""
        from repro.dataflow.contracts import Contract
        from repro.dataflow.graph import LogicalNode
        from repro.observability import attach_tracer, operator_profile
        from repro.runtime import drivers

        node = LogicalNode(
            Contract.REDUCE, [LogicalNode(Contract.SOURCE, data=[])],
            udf=lambda a, b: (a[0], a[1] + b[1]), key_fields=[(0,)],
        )
        run = (drivers.run_hash_aggregate if strategy == "hash"
               else drivers.run_sort_aggregate)
        metrics = MetricsCollector()
        tracer = attach_tracer(metrics)
        m = manager(session, budget=2_000, metrics=metrics)
        with tracer.span("operator:sum", category="operator"):
            run(node, [[(i % 50, i) for i in range(600)]],
                MetricsCollector(), spill=m)
        (operator,) = tracer.roots
        kinds = {child.name.split(":")[0] for child in operator.children}
        assert kinds == {"spill-write", "spill-read"}
        assert all(child.category == "storage" and not child.is_instant
                   for child in operator.children)
        assert sum(child.counters.get("records_spilled", 0)
                   for child in operator.children) == m.records_spilled > 0
        rows = operator_profile(tracer)["rows"]
        operator_row = next(r for r in rows if r["category"] == "operator")
        assert operator_row["records_spilled"] == 0


class TestStorageSession:
    def test_close_removes_tree_and_is_idempotent(self):
        sess = StorageSession()
        path = sess.new_file("x")
        open(path, "wb").close()
        assert os.path.exists(sess.path)
        sess.close()
        assert not os.path.exists(sess.path)
        sess.close()

    def test_worker_view_nests_inside_parent(self):
        with StorageSession() as sess:
            view = sess.worker_view(3)
            inner = view.new_file("spill")
            open(inner, "wb").close()
            assert inner.startswith(sess.path + os.sep)
            # a non-owner close never touches the parent tree
            view.close()
            assert os.path.exists(inner)
        assert not os.path.exists(sess.path)

    def test_pickles_as_non_owning_path_view(self):
        with StorageSession() as sess:
            clone = pickle.loads(pickle.dumps(sess))
            assert clone.path == sess.path
            assert not clone.owner
            clone.close()
            assert os.path.exists(sess.path)


class TestDiskDict:
    def test_dict_semantics_and_insertion_order(self, session):
        dd = DiskDict(session.new_file("dd", suffix=".log"))
        dd["a"] = (1,)
        dd["b"] = (2,)
        dd["a"] = (3,)  # replacement must not change iteration order
        assert list(dd.keys()) == ["a", "b"]
        assert list(dd.items()) == [("a", (3,)), ("b", (2,))]
        assert dd["a"] == (3,)
        assert dd.get("missing") is None
        assert "b" in dd and len(dd) == 2
        with pytest.raises(KeyError):
            dd["missing"]

    def test_matches_plain_dict_under_random_ops(self, session):
        import random
        rng = random.Random(5)
        dd = DiskDict(session.new_file("dd", suffix=".log"))
        model = {}
        for _ in range(300):
            k = rng.randrange(40)
            v = (k, rng.random())
            dd[k] = v
            model[k] = v
        assert list(dd.items()) == list(model.items())
        assert list(dd.values()) == list(model.values())

    def test_partition_view_is_lazy_sequence(self, session):
        dd = DiskDict(session.new_file("dd", suffix=".log"))
        for i in range(5):
            dd[i] = (i, i * i)
        view = DiskPartitionView(dd)
        assert view.is_lazy_partition
        assert len(view) == 5
        assert list(view) == [(i, i * i) for i in range(5)]
        assert view[2] == (2, 4)
        assert view[1:3] == [(1, 1), (2, 4)]
        # views cross process boundaries as plain lists
        assert pickle.loads(pickle.dumps(view)) == list(view)


class TestSolutionSetSnapshot:
    def test_snapshot_restore_keeps_contents_and_order(self, session):
        """Both index kinds log ``(key, record)`` items per partition in
        first-insertion order and rebuild exactly that; the disk-backed
        one rebuilds its logs in its own session and deletes the old."""
        records = [(k, -k) for k in (5, 1, 4, 2, 3, 0)]
        update = [(4, -40), (1, -10)]  # replacements keep their slot
        model = [{}, {}]
        for record in records + update:
            model[partition_index(record[0], 2)][record[0]] = record
        for cls, extra in ((SolutionSetIndex, {}),
                           (DiskBackedSolutionSetIndex,
                            {"manager": manager(session)})):
            index = cls.build(records, (0,), 2, **extra)
            index.apply_delta(update)
            snapshot = index.snapshot()
            assert snapshot == [list(part.items()) for part in model]
            logs_before = set(os.listdir(session.path))
            index.apply_delta([(5, -50), (6, -6)])  # diverge, then roll back
            index.restore(pickle.loads(pickle.dumps(snapshot)))
            assert index.snapshot() == snapshot
            assert [list(part) for part in index.to_partitions()] == [
                [record for _, record in items] for items in snapshot
            ]
            if cls is DiskBackedSolutionSetIndex:
                assert logs_before.isdisjoint(os.listdir(session.path))
                assert len(os.listdir(session.path)) == 2


class TestContentHashPins:
    """Regression pins: part ids are content-addressed across builds, so
    these folds must never change silently."""

    def test_stable_hash_pinned_values(self):
        assert stable_hash(0) == 0
        assert stable_hash((1, 2)) == stable_hash((1, 2))
        assert stable_hash((1, "a")) == 1705942584
        assert stable_hash("abc") == 891568578

    def test_content_hash_pinned_values(self):
        assert content_hash([]) == 0x345678
        assert content_hash([(1, "a")]) == 3431556861331
        assert content_hash([(1, "a"), (2, "b")]) == 3431564024382179397

    def test_content_hash_is_order_sensitive(self):
        a = [(1, "a"), (2, "b")]
        assert content_hash(a) != content_hash(list(reversed(a)))


class TestPartStore:
    def test_put_and_load_roundtrip_with_stats(self, session):
        store = PartStore(session.subdir("parts"))
        records = [(3, "c"), (1, "a"), (2, "b")]
        part_id = store.put_part(records, keys=[3, 1, 2])
        stats = store.part_stats(part_id)
        assert stats["cardinality"] == 3
        assert stats["key_range"] == [1, 3]
        assert stats["bytes"] > 0
        assert store.load_part(part_id) == records

    def test_identical_content_is_deduplicated(self, session):
        store = PartStore(session.subdir("parts"))
        a = store.put_part([(1,), (2,)])
        b = store.put_part([(1,), (2,)])
        assert a == b
        assert store.parts_written == 1
        assert store.parts_reused == 1

    def test_corrupted_part_fails_loudly(self, session):
        store = PartStore(session.subdir("parts"))
        part_id = store.put_part([(1, "payload")])
        path = os.path.join(store.root, f"{part_id}.bin")
        with open(path, "wb") as fh:
            write_header(fh)
            write_frame(fh, [(2, "tampered")])
        with pytest.raises(StorageFormatError, match="torn write"):
            store.load_part(part_id)

    def test_truncated_part_names_its_path(self, session):
        store = PartStore(session.subdir("parts"))
        part_id = store.put_part([(i, "payload") for i in range(20)])
        path = os.path.join(store.root, f"{part_id}.bin")
        os.truncate(path, os.path.getsize(path) - 7)
        with pytest.raises(StorageFormatError, match=re.escape(path)):
            store.load_part(part_id)

    def test_part_with_the_old_header_fails_on_version(self, session):
        """A part written before the one format (``RPRT`` version 1,
        then a bare pickle) fails loudly on its version byte."""
        store = PartStore(session.subdir("parts"))
        records = [(1, "payload")]
        part_id = store.put_part(records)
        path = os.path.join(store.root, f"{part_id}.bin")
        with open(path, "wb") as fh:
            fh.write(b"RPRT\x01")
            pickle.dump(records, fh)
        with pytest.raises(StorageFormatError, match="version 1"):
            store.load_part(part_id)

    def test_manifest_version_mismatch_fails_on_reopen(self, session):
        root = session.subdir("parts")
        store = PartStore(root)
        store.put_part([(1,)])
        manifest = os.path.join(root, "manifest.json")
        import json
        with open(manifest, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        data["format_version"] = 99
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        with pytest.raises(StorageFormatError, match="format_version"):
            PartStore(root)

    def test_datasets_register_and_reload(self, session):
        store = PartStore(session.subdir("parts"))
        parts = [[(1, "a")], [(2, "b")], []]
        ids = store.register("mine", parts)
        assert store.dataset_part_ids("mine") == ids
        assert store.load_dataset("mine") == parts
        assert [row["cardinality"] for row in store.dataset_stats("mine")] \
            == [1, 1, 0]
        with pytest.raises(KeyError, match="mine"):
            store.dataset_part_ids("absent")


class TestEnvironmentPartStoreAPI:
    def test_register_and_from_store_roundtrip(self):
        from repro import ExecutionEnvironment

        with ExecutionEnvironment(parallelism=2) as env:
            data = [(i, i * 10) for i in range(9)]
            source = env.from_iterable(data, name="orig")
            doubled = source.map(lambda r: (r[0], r[1] * 2))
            doubled.store("doubled")
            reloaded = env.from_store("doubled")
            assert sorted(reloaded.collect()) == sorted(
                (i, i * 20) for i in range(9)
            )

    def test_incremental_checkpoints_reuse_unchanged_parts(self):
        """Consecutive checkpoints of a mostly-converged iteration must
        reuse the untouched partitions' parts."""
        from repro import ExecutionEnvironment
        from repro.graphs import Graph
        from repro.algorithms.connected_components import cc_incremental
        from repro.runtime.config import RuntimeConfig

        graph = Graph(12, [(i, i + 1) for i in range(11)], name="path12")
        config = RuntimeConfig(
            check_invariants=True, memory_budget_bytes=1 << 30
        )
        with ExecutionEnvironment(parallelism=4, config=config) as env:
            env.checkpoint_interval = 1
            cc_incremental(env, graph, max_iterations=100)
            store = env.last_checkpoint_store
            assert store is not None
            assert store.part_store is not None
            assert store.snapshots_taken > 2
            assert store.part_store.parts_reused > 0

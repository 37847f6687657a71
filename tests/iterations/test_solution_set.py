"""The indexed solution set and the ∪̇ delta union (Section 5.1)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.hashing import partition_index
from repro.iterations.solution_set import SolutionSetIndex
from repro.runtime.metrics import MetricsCollector


def build(records, should_replace=None, parallelism=4, metrics=None):
    return SolutionSetIndex.build(
        list(records), key_fields=0, parallelism=parallelism,
        metrics=metrics, should_replace=should_replace,
    )


class TestConstruction:
    def test_partitioned_by_stable_hash(self):
        index = build([(i, i * 10) for i in range(16)])
        for p, size in enumerate(index.partition_sizes()):
            assert size == sum(
                1 for i in range(16) if partition_index(i, 4) == p
            )

    def test_build_from_partitioned_input(self):
        parts = [[(0, "a")], [(1, "b")], [], []]
        index = SolutionSetIndex.build(parts, 0, 4)
        assert len(index) == 2

    def test_last_record_wins_on_duplicate_keys(self):
        index = build([(1, "old"), (1, "new")])
        assert index.lookup_global(1) == (1, "new")


class TestLookups:
    def test_lookup_counts_accesses(self):
        metrics = MetricsCollector()
        index = build([(1, "a")], metrics=metrics)
        index.lookup_global(1)
        index.lookup_global(99)  # miss still counts as an access
        assert metrics.solution_accesses == 2

    def test_partition_local_lookup(self):
        index = build([(3, "v")])
        p = partition_index(3, 4)
        assert index.lookup(p, 3) == (3, "v")
        assert index.lookup((p + 1) % 4, 3) is None


class TestDeltaUnion:
    def test_replace_without_comparator(self):
        index = build([(1, 10)])
        assert index.apply_record((1, 99)) == (1, 99)
        assert index.lookup_global(1) == (1, 99)

    def test_insert_new_key(self):
        index = build([])
        assert index.apply_record((7, "n")) == (7, "n")
        assert len(index) == 1

    def test_comparator_rejects_regression(self):
        index = build([(1, 5)], should_replace=lambda new, old: new[1] < old[1])
        assert index.apply_record((1, 9)) is None
        assert index.lookup_global(1) == (1, 5)

    def test_comparator_accepts_progress(self):
        index = build([(1, 5)], should_replace=lambda new, old: new[1] < old[1])
        assert index.apply_record((1, 2)) == (1, 2)

    def test_apply_delta_returns_accepted_only(self):
        index = build(
            [(1, 5), (2, 5)],
            should_replace=lambda new, old: new[1] < old[1],
        )
        accepted = index.apply_delta([(1, 3), (2, 9), (3, 1)])
        assert sorted(accepted) == [(1, 3), (3, 1)]

    def test_updates_counted(self):
        metrics = MetricsCollector()
        index = build([(1, 5)], metrics=metrics)
        index.apply_delta([(1, 4), (2, 2)])
        assert metrics.solution_updates == 2

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 100)),
                    max_size=40))
    def test_union_idempotent_under_min_comparator(self, deltas):
        """Applying a delta batch twice must equal applying it once."""
        base = [(k, 1000) for k in range(10)]
        once = build(base, should_replace=lambda n, o: n[1] < o[1])
        once.apply_delta(deltas)
        twice = build(base, should_replace=lambda n, o: n[1] < o[1])
        twice.apply_delta(deltas)
        twice.apply_delta(deltas)
        assert once.as_dict() == twice.as_dict()

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 100)),
                    max_size=40))
    def test_min_comparator_order_independent(self, deltas):
        """With a total-order comparator, ∪̇ is batch-order independent."""
        base = [(k, 1000) for k in range(10)]
        forward = build(base, should_replace=lambda n, o: n[1] < o[1])
        forward.apply_delta(deltas)
        backward = build(base, should_replace=lambda n, o: n[1] < o[1])
        backward.apply_delta(list(reversed(deltas)))
        assert forward.as_dict() == backward.as_dict()


class TestExport:
    def test_roundtrip(self):
        records = [(i, str(i)) for i in range(10)]
        index = build(records)
        assert sorted(index.records()) == sorted(records)
        assert sorted(
            r for part in index.to_partitions() for r in part
        ) == sorted(records)
        assert index.as_dict() == {i: (i, str(i)) for i in range(10)}

"""Columnar RecordBatch v2: struct-of-arrays layout and its kernels.

The column view is a second *physical* representation of the same
logical chunk, and every property here holds it to the row
representation bit for bit: strict column typing (bool never coerces,
64-bit overflow demotes), lazy row materialization for column-born
batches, column-wise split/merge, and the column-at-a-time hash
scatter checked against the row append loop as oracle.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import columns as columns_mod
from repro.common.batch import RecordBatch
from tests.conftest import numpy_stubbed


class TestColumnTyping:
    def test_ints_build_a_fixed_width_column(self):
        typecode, data = columns_mod.build_column([1, -2, 3])
        assert typecode == "q"
        assert list(data) == [1, -2, 3]

    def test_floats_build_a_fixed_width_column(self):
        typecode, data = columns_mod.build_column([1.5, -0.0])
        assert typecode == "d"
        assert list(data) == [1.5, -0.0]

    def test_bools_stay_objects(self):
        # array('q') would coerce True -> 1 and break round-tripping
        typecode, data = columns_mod.build_column([True, False])
        assert typecode == columns_mod.OBJECT
        assert data == [True, False]

    def test_mixed_int_and_bool_stays_objects(self):
        typecode, _data = columns_mod.build_column([1, True, 2])
        assert typecode == columns_mod.OBJECT

    def test_int64_overflow_demotes_to_objects(self):
        typecode, data = columns_mod.build_column([1, 1 << 70])
        assert typecode == columns_mod.OBJECT
        assert data == [1, 1 << 70]

    def test_strings_stay_objects(self):
        typecode, _data = columns_mod.build_column(["a", "b"])
        assert typecode == columns_mod.OBJECT

    def test_irregular_arity_refuses_to_columnarize(self):
        assert columns_mod.columnarize([(1,), (1, 2)]) is None

    def test_non_tuple_records_refuse_to_columnarize(self):
        assert columns_mod.columnarize([(1, 2), [3, 4]]) is None


# records mixing fixed-width and object columns: an int key plus a
# value column whose per-record draws may be int, float, str, bool, or
# a nested tuple (mixed draws demote the whole column to objects)
mixed_values = st.one_of(
    st.integers(min_value=-(1 << 66), max_value=1 << 66),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.booleans(),
    st.tuples(st.integers(0, 9)),
)
mixed_records = st.lists(
    st.tuples(st.integers(-1000, 1000), mixed_values), max_size=50
)
int_records = st.lists(
    st.tuples(
        st.integers(min_value=-(1 << 62), max_value=1 << 62),
        st.integers(min_value=-(1 << 62), max_value=1 << 62),
    ),
    min_size=1, max_size=60,
)


class TestRoundTrips:
    @given(mixed_records)
    @settings(max_examples=100)
    def test_columnarize_materialize_is_identity(self, recs):
        layout = columns_mod.columnarize(list(recs))
        assert layout is not None
        _arity, cols = layout
        rows = columns_mod.materialize_rows(cols, len(recs))
        assert rows == recs
        # bitwise fidelity includes types: True must come back as bool,
        # 1 as int, 1.0 as float
        for row, expect in zip(rows, recs):
            assert list(map(type, row)) == list(map(type, expect))

    @given(int_records)
    @settings(max_examples=50)
    def test_column_born_batch_pickles_to_its_rows(self, recs):
        _arity, cols = columns_mod.columnarize(list(recs))
        batch = RecordBatch.from_columns(len(recs), cols, (0,))
        clone = pickle.loads(pickle.dumps(batch))
        assert clone.records == recs
        assert clone.key_fields == (0,)


class TestColumnBornLaziness:
    def test_keys_come_from_the_key_column_without_rows(self):
        recs = [(3, 10), (1, 20), (2, 30)]
        _arity, cols = columns_mod.columnarize(recs)
        batch = RecordBatch.from_columns(len(recs), cols, (0,))
        assert batch.keys == [3, 1, 2]
        assert batch._records is None  # no row ever materialized
        assert batch.records == recs   # and rows still come out right

    def test_nbytes_is_exact_for_fixed_width_columns(self):
        recs = [(1, 2.5), (3, 4.5)]
        _arity, cols = columns_mod.columnarize(recs)
        batch = RecordBatch.from_columns(len(recs), cols, (0,))
        assert batch.nbytes() == 2 * 16

    def test_split_keeps_chunks_column_born(self):
        recs = [(i, i * i) for i in range(10)]
        _arity, cols = columns_mod.columnarize(recs)
        batch = RecordBatch.from_columns(len(recs), cols, (0,))
        chunks = batch.split(3)
        assert [len(c) for c in chunks] == [3, 3, 3, 1]
        assert all(c._records is None for c in chunks)
        assert batch._records is None
        flattened = [r for c in chunks for r in c.records]
        assert flattened == recs

    def test_merge_of_column_born_chunks_stays_column_born(self):
        recs = [(i, float(i)) for i in range(8)]
        _arity, cols = columns_mod.columnarize(recs)
        batch = RecordBatch.from_columns(len(recs), cols, (0,))
        merged = RecordBatch.merge(batch.split(3))
        assert merged._records is None
        assert merged.records == recs


@pytest.mark.skipif(columns_mod.numpy_module() is None,
                    reason="needs numpy")
class TestScatter:
    @staticmethod
    def _column_born(recs, key_fields=(0,)):
        _arity, cols = columns_mod.columnarize(list(recs))
        return RecordBatch.from_columns(len(recs), cols, key_fields)

    @given(int_records, st.integers(min_value=1, max_value=6))
    @settings(max_examples=100)
    def test_scatter_matches_the_row_append_loop(self, recs, parallelism):
        batch = self._column_born(recs)
        groups = batch.scatter(parallelism)
        assert groups is not None
        expect = [[] for _ in range(parallelism)]
        for record in recs:
            expect[record[0] % parallelism].append(record)
        assert [g.records for g in groups] == expect
        # the scatter itself never materialized a row anywhere
        assert batch._records is None

    @given(int_records, st.integers(min_value=1, max_value=6))
    @settings(max_examples=50)
    def test_scatter_outputs_are_column_born(self, recs, parallelism):
        groups = self._column_born(recs).scatter(parallelism)
        assert all(g._records is None and g.has_columns() for g in groups)
        assert sum(len(g) for g in groups) == len(recs)

    def test_object_columns_fall_back(self):
        batch = self._column_born([(1, "a"), (2, "b")])
        assert batch.scatter(2) is None

    def test_row_born_batches_fall_back(self):
        batch = RecordBatch.wrap([(1, 2), (3, 4)], (0,))
        assert batch.scatter(2) is None

    def test_materialized_column_born_batches_fall_back(self):
        batch = self._column_born([(1, 2), (3, 4)])
        batch.records  # rows now exist: caches could go stale
        assert batch.scatter(2) is None

    @given(int_records, st.integers(min_value=1, max_value=6))
    @settings(max_examples=50)
    def test_partition_targets_agree_across_modes(self, recs, parallelism):
        columnar_targets = self._column_born(recs).partition_targets(
            parallelism
        )
        with numpy_stubbed():
            row_targets = RecordBatch.wrap(
                list(recs), (0,)
            ).partition_targets(parallelism)
        assert columnar_targets == row_targets

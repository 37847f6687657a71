"""Row spill frames: a record list round-trips through one frame.

``SpillFile.append`` writes a record list as one pickled frame of the
storage format, whatever its field types; readers see the same rows,
types included.  ``estimate_record_bytes`` prices a column-born batch
by exact buffer arithmetic instead of the sampled ``getsizeof`` walk.
"""

from repro.common import columns as columns_mod
from repro.common.batch import RecordBatch
from repro.storage.format import read_frames
from repro.storage.spill import SpillFile, estimate_record_bytes


class TestColumnarFrames:
    def test_column_frames_read_back_as_rows(self, tmp_path):
        spill = SpillFile(str(tmp_path / "spill.bin"))
        entries = [(i, i * 2, float(i), i % 2 == 0) for i in range(50)]
        spill.append(entries)
        assert spill.read_entries() == entries
        # type fidelity survives the round trip: bools stay bools
        assert all(
            (type(a), type(b), type(c), type(d)) == (int, int, float, bool)
            for a, b, c, d in spill.read_entries()
        )

    def test_object_entries_fall_back_to_pickled_frames(self, tmp_path):
        path = str(tmp_path / "spill.bin")
        entries = [(i, "v%d" % i, (i, i)) for i in range(30)]
        spill = SpillFile(path)
        spill.append(entries)
        spill.finish()
        assert list(read_frames(path)) == [entries]
        assert spill.read_entries() == entries

    def test_nested_hashtable_entries_fall_back(self, tmp_path):
        # the spilling join writes (seq, key, record) triples whose
        # record field is itself a tuple: an object column, so the
        # frame pickles — and still round-trips
        spill = SpillFile(str(tmp_path / "spill.bin"))
        entries = [(i, i % 5, (i, float(i))) for i in range(40)]
        spill.append(entries)
        assert spill.read_entries() == entries

    def test_mixed_frames_interleave_correctly(self, tmp_path):
        spill = SpillFile(str(tmp_path / "spill.bin"))
        columnar_entries = [(i, i) for i in range(20)]
        pickled_entries = [(i, "s") for i in range(10)]
        spill.append(columnar_entries)
        spill.append(pickled_entries)
        spill.append(columnar_entries)
        assert list(spill) == [
            columnar_entries, pickled_entries, columnar_entries
        ]


class TestEstimates:
    def test_column_born_batches_price_exactly(self):
        recs = [(i, float(i)) for i in range(64)]
        _arity, cols = columns_mod.columnarize(recs)
        batch = RecordBatch.from_columns(len(recs), cols, (0,))
        assert estimate_record_bytes(batch) == 16

    def test_row_batches_fall_back_to_sampling(self):
        batch = RecordBatch.wrap([(1, "x")] * 10, (0,))
        assert estimate_record_bytes(batch) > 0

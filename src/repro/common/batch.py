"""Record batches: the unit of movement on the data plane.

The paper's runtime ships serialized *buffers* between Nephele tasks
(Sections 3, 4.2) — records are framed into fixed-size chunks, and every
per-record cost (hashing, routing, serialization setup) is paid once per
buffer, amortized over its records.  A :class:`RecordBatch` is this
reproduction's buffer: an immutable chunk of tuple records that knows
its schema's key fields and lazily computes — and caches — the vector of
key values and the vector of their stable hash codes.

**Columnar v2.**  A batch now carries *two* physical representations
and materializes each lazily:

* the **row view** (``records``): the list of tuple records every UDF
  consumes, adopted at construction or transposed once from columns;
* the **column view** (``columns()``): a struct-of-arrays layout from
  :mod:`repro.common.columns` — one ``array('q')``/``array('d')``
  buffer per fixed-width field, an object list otherwise — built once
  from the rows or adopted from a column split, scatter or merge via
  :meth:`from_columns`.

The key and hash vectors are just two more (virtual) columns: for a
single int key field the key column *is* the hash column
(``stable_hash(int) == int``), and :meth:`key_array` exposes it as an
int64 ndarray when numpy is present, which is what lets the hash
channel compute partition targets with one vectorized ``%`` and the
join drivers compute match indices with ``searchsorted`` instead of a
per-record dict probe.  Every vectorized path is gated on the input
alone — a strict type check and numpy being importable — and falls
back to the row loops with bitwise-identical results.

Layers that move or group records (the shipping channels, the physical
join/aggregation drivers, the solution-set index) consume batches instead of looping a :class:`KeyExtractor` and
:func:`stable_hash` over individual records.  Setting ``batch_size=1``
degenerates to honest record-at-a-time execution — every record pays the
full per-batch framing overhead, which is exactly the regime the batched
data plane exists to escape (and what the ``dataplane`` microbenchmark
measures).

Batches are *immutable by contract*: after construction the record list
must not be mutated (the cached vectors would go stale).  Datasets at
rest remain plain partition lists — the partition-count contract and all
public APIs are unchanged; batches live inside the hot paths.
"""

from __future__ import annotations

from repro.common import columns as columnar
from repro.common.hashing import stable_hash
from repro.common.keys import KeyExtractor, normalize_key_fields

#: slot sentinel: "computed, not applicable" (vs ``None`` = "not yet")
_NA = False


def _rebuild_batch(records, key_fields, keys, hashes):
    """Unpickle hook: restore a batch with its cached vectors."""
    return RecordBatch(records, key_fields, _keys=keys, _hashes=hashes)


class RecordBatch:
    """An immutable chunk of records with cached key and hash vectors.

    ``records`` is adopted, not copied — the caller transfers ownership
    and must not mutate it afterwards.  ``keys[i]`` is the key value of
    ``records[i]`` under ``key_fields`` (bare value for single-field
    keys, tuple for composite keys — the :class:`KeyExtractor`
    convention); ``hashes[i]`` is ``stable_hash(keys[i])``.  Both
    vectors are computed on first access and cached, so a batch that is
    hashed for routing and again for an index build pays the hash pass
    once.
    """

    __slots__ = ("_records", "key_fields", "_keys", "_hashes",
                 "_columns", "_key_array")

    def __init__(self, records, key_fields=None, _keys=None, _hashes=None):
        self._records = records
        self.key_fields = (
            normalize_key_fields(key_fields) if key_fields is not None
            else None
        )
        self._keys = _keys
        self._hashes = _hashes
        self._columns = None
        self._key_array = None

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def wrap(cls, records, key_fields=None) -> "RecordBatch":
        """Adopt ``records`` (idempotent: re-wraps an existing batch).

        Re-wrapping a batch whose ``key_fields`` already match reuses
        its cached vectors; a different key schema drops the key/hash
        caches but keeps the column view (columns are schema-free).
        """
        if isinstance(records, RecordBatch):
            if key_fields is None:
                return records
            fields = normalize_key_fields(key_fields)
            if records.key_fields == fields:
                return records
            rewrapped = cls.__new__(cls)
            rewrapped._records = records._records
            rewrapped.key_fields = fields
            rewrapped._keys = None
            rewrapped._hashes = None
            rewrapped._columns = records._columns
            rewrapped._key_array = None
            return rewrapped
        return cls(list(records) if not isinstance(records, list)
                   else records, key_fields)

    @classmethod
    def from_columns(cls, length, cols, key_fields=None) -> "RecordBatch":
        """Adopt a struct-of-arrays payload; rows materialize lazily.

        ``cols`` is the ``[(typecode, buffer), ...]`` layout of
        :mod:`repro.common.columns` (a slice, scatter group or merge of
        other column views).  The row view is transposed on first
        ``records`` access, so a batch that is only counted never pays it.
        """
        batch = cls.__new__(cls)
        batch._records = None
        batch.key_fields = (
            normalize_key_fields(key_fields) if key_fields is not None
            else None
        )
        batch._keys = None
        batch._hashes = None
        batch._columns = (length, cols)
        batch._key_array = None
        return batch

    # ------------------------------------------------------------------
    # physical representations

    @property
    def records(self) -> list:
        """The row view (materialized from columns on first access)."""
        if self._records is None:
            length, cols = self._columns
            self._records = columnar.materialize_rows(cols, length)
        return self._records

    def columns(self):
        """The column view ``(length, [(typecode, buffer), ...])``.

        Built once from the rows (``None`` for irregular chunks — mixed
        arity or non-tuple records keep the row representation only).
        """
        if self._columns is None:
            transposed = columnar.columnarize(self._records)
            if transposed is None:
                self._columns = _NA
            else:
                _arity, cols = transposed
                self._columns = (len(self._records), cols)
        return self._columns if self._columns is not _NA else None

    def has_columns(self) -> bool:
        """True when the column view is already materialized."""
        return bool(self._columns) and self._columns is not _NA

    def nbytes(self) -> int | None:
        """Exact fixed-width payload bytes, ``None`` if any object column.

        Lets the spill manager size a batch arithmetically instead of
        pickling a probe copy.
        """
        layout = self.columns()
        if layout is None:
            return None
        length, cols = layout
        return columnar.frame_nbytes(cols, length)

    def key_array(self):
        """The key vector as an int64 ndarray, or ``None``.

        Available only for single-field keys whose values are all
        exactly ``int`` (bools excluded, 64-bit overflow demotes) with
        numpy importable.  Because ``stable_hash(int) == int``, this
        array doubles as the hash vector — partition targets are one
        vectorized ``%`` away.
        """
        if self._key_array is None:
            self._key_array = _NA
            if self.key_fields is not None and len(self.key_fields) == 1:
                if (
                    self.has_columns()
                    and self._keys is None
                    and columnar.numpy_module() is not None
                ):
                    # zero-copy view over the key field's 'q' buffer
                    _length, cols = self._columns
                    field = self.key_fields[0]
                    if field < len(cols):
                        typecode, data = cols[field]
                        if typecode == "q":
                            self._key_array = columnar.int64_view(data)
                if self._key_array is _NA:
                    vector = columnar.int64_from_values(self.keys)
                    if vector is not None:
                        self._key_array = vector
        return self._key_array if self._key_array is not _NA else None

    # ------------------------------------------------------------------
    # cached vectors

    @property
    def keys(self) -> list:
        """The key value of every record (one extraction pass, cached)."""
        if self._keys is None:
            if self.key_fields is None:
                raise ValueError(
                    "this batch carries no key fields — keys are undefined"
                )
            if (
                self._records is None
                and len(self.key_fields) == 1
                and self.key_fields[0] < len(self._columns[1])
            ):
                # column-born batch: the key vector is the key column —
                # no row materialization needed to route or build
                _typecode, data = self._columns[1][self.key_fields[0]]
                self._keys = list(data)
            else:
                extract = KeyExtractor(self.key_fields)
                self._keys = list(map(extract._getter, self.records))
        return self._keys

    @property
    def hashes(self) -> list[int]:
        """``stable_hash`` of every key (one hash pass, cached)."""
        if self._hashes is None:
            keys = self.keys
            if set(map(type, keys)) == {int}:
                # stable_hash(int) == int: the key vector IS the hash
                # vector, shared rather than copied
                self._hashes = keys
            else:
                self._hashes = [stable_hash(k) for k in keys]
        return self._hashes

    def partition_targets(self, parallelism: int) -> list[int]:
        """The owning partition of every record (``hash % parallelism``).

        With an int64 key column available, the hash and modulo run as
        one vectorized pass (numpy's ``%`` matches Python's
        floored-division convention, so targets are bitwise identical
        to the row loop).
        """
        vector = self.key_array()
        if vector is not None:
            return (vector % parallelism).tolist()
        return [h % parallelism for h in self.hashes]

    # ------------------------------------------------------------------
    # sequence protocol

    def __len__(self):
        if self._records is None:
            return self._columns[0]
        return len(self._records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, index):
        return self.records[index]

    def __eq__(self, other):
        if isinstance(other, RecordBatch):
            return self.records == other.records
        if isinstance(other, list):
            return self.records == other
        return NotImplemented

    def __repr__(self):
        return (f"RecordBatch({len(self)} records, "
                f"key_fields={self.key_fields})")

    def __reduce__(self):
        # checkpoints and the pool codec pickle partitions that may be
        # batches; round-trip the rows plus the key/hash caches
        return (
            _rebuild_batch,
            (self.records, self.key_fields, self._keys, self._hashes),
        )

    # ------------------------------------------------------------------
    # reshaping

    def split(self, max_records) -> list["RecordBatch"]:
        """Chunk into batches of at most ``max_records`` records.

        Record order is preserved across the chunk sequence; cached key,
        hash and int64 key vectors are sliced, not recomputed.  ``None``
        (or a bound covering the whole batch) returns ``[self]`` without
        copying.  A column-born batch splits by slicing its column
        buffers — the chunks stay column-born and no rows materialize.
        """
        return list(self.chunks(max_records))

    def chunks(self, max_records):
        """:meth:`split`, lazily: each chunk is sliced when the consumer
        reaches it, so a long input never holds all its chunks at once."""
        n = len(self)
        if max_records is None or max_records >= n:
            yield self
            return
        if max_records < 1:
            raise ValueError(
                f"batch split size must be >= 1, got {max_records}"
            )
        for lo in range(0, n, max_records):
            yield self._slice(lo, min(lo + max_records, n))

    def _slice(self, lo, hi) -> "RecordBatch":
        """Records ``lo:hi`` as a batch sharing this one's cached vectors."""
        if self._records is None:
            _length, cols = self._columns
            sub = RecordBatch.from_columns(
                hi - lo, [(typecode, data[lo:hi]) for typecode, data in cols],
                self.key_fields,
            )
        else:
            sub = RecordBatch(self._records[lo:hi], self.key_fields)
        keys, hashes = self._keys, self._hashes
        if keys is not None:
            sub._keys = keys[lo:hi]
        if hashes is not None:
            sub._hashes = sub._keys if hashes is keys else hashes[lo:hi]
        if self._key_array is not None and self._key_array is not _NA:
            sub._key_array = self._key_array[lo:hi]
        return sub

    def scatter(self, parallelism: int):
        """Hash-scatter a column-born batch column-at-a-time.

        Returns one column-born :class:`RecordBatch` per target
        partition — records grouped by ``hash % parallelism``, input
        order preserved within each group, exactly as the row scatter's
        append loop orders them — without materializing a single row:
        one vectorized modulo over the key column, one stable argsort,
        one fancy index per column buffer.  Returns ``None`` unless
        :meth:`can_scatter`, so the caller can fall back to the row loop.
        """
        vector = self.key_array() if self.can_scatter() else None
        if vector is None:
            return None
        _length, cols = self._columns
        groups = columnar.scatter_fixed(cols, vector, parallelism)
        return [
            RecordBatch.from_columns(count, group, self.key_fields)
            for count, group in groups
        ]

    def can_scatter(self) -> bool:
        """Whether :meth:`scatter` applies: the batch is column-born
        (rows never materialized), every column is fixed-width and the
        single key field is an int64 column.  A property of the layout,
        so every chunk of :meth:`split` shares it."""
        if (
            self._records is not None
            or not self.has_columns()
            or columnar.numpy_module() is None
            or self.key_fields is None
            or len(self.key_fields) != 1
        ):
            return False
        cols = self._columns[1]
        field = self.key_fields[0]
        return (
            field < len(cols)
            and cols[field][0] == "q"
            and all(typecode != columnar.OBJECT for typecode, _data in cols)
        )

    @classmethod
    def merge(cls, batches) -> "RecordBatch":
        """Concatenate batches (same key schema) into one.

        Cached vectors are concatenated when every input carries them;
        one cold batch makes the merged vector lazy again.  When every
        input is column-born with matching layouts and no input has
        materialized rows yet, the merge concatenates column buffers
        instead (a hash scatter's per-target groups stay columnar).
        """
        batches = list(batches)
        if not batches:
            return cls([], None)
        key_fields = batches[0].key_fields
        for batch in batches[1:]:
            if batch.key_fields != key_fields:
                raise ValueError(
                    f"cannot merge batches keyed on {batch.key_fields} "
                    f"into a batch keyed on {key_fields}"
                )
        merged_columns = cls._merge_columns(batches)
        if merged_columns is not None:
            return cls.from_columns(
                merged_columns[0], merged_columns[1], key_fields
            )
        records: list = []
        keys: list | None = []
        hashes: list | None = []
        for batch in batches:
            records.extend(batch.records)
            if keys is not None and batch._keys is not None:
                keys.extend(batch._keys)
            else:
                keys = None
            if hashes is not None and batch._hashes is not None:
                hashes.extend(batch._hashes)
            else:
                hashes = None
        fields = (
            tuple(key_fields) if key_fields is not None else None
        )
        return cls(records, fields, _keys=keys, _hashes=hashes)

    @staticmethod
    def _merge_columns(batches):
        """Column-wise concatenation, or ``None`` when rows are cheaper."""
        if not all(
            batch._records is None and batch.has_columns()
            for batch in batches
        ):
            return None
        layouts = [batch._columns for batch in batches]
        signature = tuple(t for t, _data in layouts[0][1])
        if any(
            tuple(t for t, _data in cols) != signature
            for _length, cols in layouts[1:]
        ):
            return None
        total = sum(length for length, _cols in layouts)
        merged = []
        for index, typecode in enumerate(signature):
            first = layouts[0][1][index][1]
            data = first[:] if typecode != columnar.OBJECT else list(first)
            for _length, cols in layouts[1:]:
                data.extend(cols[index][1])
            merged.append((typecode, data))
        return total, merged

    @classmethod
    def rechunk(cls, batches, max_records) -> list["RecordBatch"]:
        """Re-frame a batch sequence to a new chunk bound.

        Equivalent to ``merge(batches).split(max_records)``: the record
        stream is unchanged, only the framing moves.
        """
        return cls.merge(batches).split(max_records)


def iter_batches(records, key_fields, batch_size):
    """Frame a record list (or batch) into key-carrying chunks.

    The workhorse of the batched hot paths: yields
    :class:`RecordBatch` chunks of at most ``batch_size`` records
    (``None`` = one batch).  ``batch_size=1`` is the degenerate
    record-at-a-time framing.
    """
    yield from RecordBatch.wrap(records, key_fields).chunks(batch_size)

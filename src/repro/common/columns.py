"""Struct-of-arrays column storage for the batched data plane.

A :class:`~repro.common.batch.RecordBatch` is logically a chunk of tuple
records; this module gives it a *physical* second representation — one
buffer per field, in the spirit of the paper's Nephele channel buffers
(Sec. 4.2) and Arrow-style morsel engines.  Fixed-width fields live in
``array.array`` buffers (``'q'`` for int64-range ints, ``'d'`` for
floats), everything else in a plain object list.  The fixed-width
buffers are what hashing, scattering and exact size estimates work
over; nothing on disk or on the wire is written from them (spill files
and fabric frames pickle).

**Strict typing rules** keep the layout bitwise-faithful to the row
representation:

* a column is ``'q'`` only when every value satisfies ``type(x) is
  int`` — ``bool`` is deliberately excluded because ``array('q')``
  would silently coerce ``True`` to ``1`` and break round-tripping;
* an int that overflows a signed 64-bit slot demotes the column to an
  object list (``OverflowError`` is caught, never masked);
* a column is ``'d'`` only when every value satisfies ``type(x) is
  float`` — IEEE doubles round-trip exactly through ``'d'``;
* anything else (strings, nested tuples, mixed types) stays an object
  list.

The optional **numpy fast path** is a capability probe: when numpy is
importable, int64 key columns become zero-copy ``ndarray`` views
(``np.frombuffer`` over the ``array`` buffer) and hashing / partition
arithmetic / join index computation vectorize; without numpy every
consumer falls back to the row loops.  Results are bitwise identical
either way — numpy's ``%`` follows Python's floored-division sign
convention, and ``stable_hash`` of an int *is* the int.
"""

from __future__ import annotations

from array import array

try:  # capability probe: numpy accelerates, never changes results
    import numpy as _np
except ImportError:  # pragma: no cover - tests stub ``_np`` to ``None``
    _np = None

#: typecode for object (pickled) columns; 'q'/'d' are array typecodes
OBJECT = "o"

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def numpy_module():
    """The probed numpy module, or ``None`` when unavailable."""
    return _np


def build_column(values):
    """Type a field's value list into ``(typecode, buffer)``.

    Returns ``('q', array)`` / ``('d', array)`` for fixed-width columns
    under the strict rules above, ``('o', list)`` otherwise.  ``values``
    is adopted for object columns, copied into an ``array`` buffer for
    fixed-width ones.
    """
    kinds = set(map(type, values))
    if kinds == {int}:
        try:
            return "q", array("q", values)
        except OverflowError:
            return OBJECT, values
    if kinds == {float}:
        return "d", array("d", values)
    return OBJECT, values


def columnarize(records):
    """Transpose a regular tuple-record list into typed columns.

    Returns ``(arity, [(typecode, buffer), ...])`` when every record is
    a tuple of one common arity, else ``None`` (irregular chunks keep
    the row representation).  An empty record list is regular with arity
    ``0``.
    """
    if not records:
        return 0, []
    if set(map(type, records)) != {tuple}:
        return None
    arities = set(map(len, records))
    if len(arities) != 1:
        return None
    arity = arities.pop()
    columns = [
        build_column(list(field_values)) for field_values in zip(*records)
    ]
    return arity, columns


def materialize_rows(columns, length):
    """Rebuild the tuple-record list from typed columns (one C pass)."""
    if not columns:
        return [() for _ in range(length)]
    return list(zip(*(data for _typecode, data in columns)))


def column_nbytes(typecode, data) -> int | None:
    """Exact byte length of one column, ``None`` for object columns."""
    if typecode == OBJECT:
        return None
    return len(data) * data.itemsize


def frame_nbytes(columns, length) -> int | None:
    """Exact payload bytes of all-fixed-width columns, else ``None``.

    ``rows * sum(itemsize)``: a batch's size known by arithmetic
    instead of a sampled ``getsizeof`` walk.
    """
    total = 0
    for typecode, data in columns:
        nbytes = column_nbytes(typecode, data)
        if nbytes is None:
            return None
        total += nbytes
    return total


_NP_DTYPES = {"q": "int64", "d": "float64"}


def scatter_fixed(columns, vector, parallelism):
    """Group all-fixed-width columns by ``vector % parallelism``.

    ``vector`` is the frame's int64 hash ndarray (one entry per record).
    Returns ``[(count, cols), ...]`` — one all-fixed-width column group
    per target, records in input order within each group, which is
    exactly the order the row scatter's append loop produces — or
    ``None`` when numpy is missing or any column is object-typed.  The
    whole pass is vectorized: one modulo, one stable argsort, one fancy
    index per column; no per-record Python bytecode runs.
    """
    if _np is None:
        return None
    views = []
    for typecode, data in columns:
        if typecode == OBJECT:
            return None
        views.append(
            (typecode, _np.frombuffer(data, dtype=_NP_DTYPES[typecode]))
        )
    targets = vector % parallelism
    order = _np.argsort(targets, kind="stable")
    bounds = _np.searchsorted(
        targets[order], _np.arange(parallelism + 1)
    ).tolist()
    gathered = [(typecode, view[order]) for typecode, view in views]
    groups = []
    for target in range(parallelism):
        lo, hi = bounds[target], bounds[target + 1]
        cols = []
        for typecode, view in gathered:
            data = array(typecode)
            data.frombytes(view[lo:hi].tobytes())
            cols.append((typecode, data))
        groups.append((hi - lo, cols))
    return groups


def int64_view(data):
    """Zero-copy numpy int64 view over an ``array('q')`` buffer."""
    if _np is None:
        return None
    return _np.frombuffer(data, dtype=_np.int64)


def int64_from_values(values):
    """Vectorize a list of exact ints into an int64 ndarray.

    Returns ``None`` when numpy is missing, any value is not exactly an
    ``int`` (bools excluded — same strictness as :func:`build_column`),
    or a value overflows 64 bits.  Never truncates silently.
    """
    if _np is None or not values:
        return None
    if set(map(type, values)) != {int}:
        return None
    try:
        return _np.fromiter(values, dtype=_np.int64, count=len(values))
    except OverflowError:
        return None

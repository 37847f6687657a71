"""Deterministic hashing for partition assignment.

Python's built-in ``hash`` is salted per process for strings, which
would make partition assignments (and therefore message counts and
plans) irreproducible across runs.  ``stable_hash`` is process-
independent; every partitioner in the system — channels, the solution-
set index, microstep queues — routes through :func:`partition_index`.
"""

from __future__ import annotations

import zlib


def stable_hash(value) -> int:
    """A process-independent hash for partitioning.

    Integers partition by value (keeping assignments stable and
    testable); strings and bytes use CRC32; tuples combine their
    elements.  Anything else falls back to ``hash``.

    **Collision semantics for mixed-type keys.**  Numeric keys that
    compare equal hash equal, exactly as Python's ``hash`` does for
    dict keys: ``stable_hash(True) == stable_hash(1) ==
    stable_hash(1.0)`` (bools are ints by value, and whole floats take
    their int value).  This coincidence is *required*, not incidental —
    the solution-set index stores records in plain dicts keyed by the key
    value, so a partitioner that separated ``1`` from ``1.0`` would
    route a delta record to a partition whose dict would still treat
    the two as the same key, corrupting the ∪̇ accounting.  The
    invariant ``a == b  ⇒  stable_hash(a) == stable_hash(b)`` (for
    hashable keys) keeps partition routing and dict equality aligned.
    Corollary: keys of *distinct* value but different types (``1`` vs
    ``"1"``) may or may not collide; benchmarks must not rely on
    cross-type separation, only on same-value agreement.  The exact
    assignments benchmarks depend on are pinned by regression tests in
    ``tests/common/test_hashing.py``.
    """
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return zlib.crc32(value.encode("utf-8"))
    if isinstance(value, bytes):
        return zlib.crc32(value)
    if isinstance(value, tuple):
        acc = 0x345678
        for item in value:
            acc = (acc * 1000003) ^ stable_hash(item)
        return acc & 0x7FFFFFFF
    if isinstance(value, float) and value.is_integer():
        # not hash(): CPython reserves -1, so hash(-1.0) is -2 and
        # would part -1.0 from -1
        return int(value)
    return hash(value)


def partition_index(key_value, parallelism: int) -> int:
    """The partition that owns ``key_value`` under hash partitioning."""
    return stable_hash(key_value) % parallelism

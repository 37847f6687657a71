"""An insertion-ordered dict whose values live in an append-only log.

The disk-backed :class:`~repro.iterations.solution_set.SolutionSetIndex`
swaps its per-partition ``dict`` for a :class:`DiskDict`: keys (with
the offset of their latest value frame) stay in a small in-memory
index, records go to a log file in the one on-disk format
(:mod:`repro.storage.format`): the header, then one frame per stored
record, read back by offset.  Replacement rewrites
the offset in place, so iteration order is exactly ``dict`` semantics —
first-insertion order, stable across updates — which is what keeps
out-of-core delta iterations bitwise identical to in-memory runs.

The log is write-mostly: ``∪̇``-style replacement just appends the new
record and orphans the old frame (space is reclaimed when the log is
deleted or the session directory is removed; spill state is per-run
scratch, not a database).  A ``DiskDict`` does not pickle: a checkpoint
logs the solution set's items, and the index rebuilds its logs from
them in its own session
(:meth:`~repro.iterations.solution_set.DiskBackedSolutionSetIndex.restore`).
"""

from __future__ import annotations

import os

from repro.storage.format import read_frame, write_frame, write_header

_MISSING = object()


class DiskDict:
    """Mapping with dict iteration semantics and on-disk values."""

    def __init__(self, path: str):
        self.path = path
        self._index: dict = {}  # key -> offset of latest value frame
        self._fh = open(path, "w+b")
        self._tail = write_header(self._fh)
        self._dirty = False
        self.bytes_written = self._tail
        self.frames_written = 0
        #: (frames, bytes) written when the owner last took the unbilled
        #: writes; the header is never billed
        self._billed = (0, self._tail)

    # ------------------------------------------------------------------
    # mapping protocol (the subset SolutionSetIndex and the executor use)

    def __setitem__(self, key, record) -> None:
        self._fh.seek(self._tail)
        nbytes = write_frame(self._fh, record)
        self._index[key] = self._tail
        self._tail += nbytes
        self.bytes_written += nbytes
        self.frames_written += 1
        self._dirty = True

    def take_unbilled(self) -> tuple[int, int]:
        """``(frames, bytes)`` appended since the previous call."""
        frames, nbytes = self._billed
        self._billed = (self.frames_written, self.bytes_written)
        return self.frames_written - frames, self.bytes_written - nbytes

    def _read(self, offset):
        if self._dirty:
            self._fh.flush()
            self._dirty = False
        self._fh.seek(offset)
        return read_frame(self._fh, self.path)

    def __getitem__(self, key):
        offset = self._index.get(key, _MISSING)
        if offset is _MISSING:
            raise KeyError(key)
        return self._read(offset)

    def get(self, key, default=None):
        offset = self._index.get(key, _MISSING)
        if offset is _MISSING:
            return default
        return self._read(offset)

    def __contains__(self, key) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._index)

    def __iter__(self):
        return iter(self._index)

    def keys(self):
        return self._index.keys()

    def values(self):
        for offset in list(self._index.values()):
            yield self._read(offset)

    def items(self):
        for key, offset in list(self._index.items()):
            yield key, self._read(offset)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def delete(self) -> None:
        """Close the log and remove its file."""
        self.close()
        try:
            os.unlink(self.path)
        except OSError:
            pass


class DiskPartitionView:
    """Read-only sequence over one DiskDict's values, in dict order.

    Stands in for the materialized ``list(part.values())`` a delta
    iteration returns: forward ships pass it through untouched (see
    ``channels._ship_forward``), record-wise drivers iterate it
    streaming, and anything that really needs a list (pickling, ship
    to another partition) gets one via ``list(view)``.
    """

    is_lazy_partition = True

    def __init__(self, disk_dict: DiskDict):
        self._dd = disk_dict

    def __len__(self) -> int:
        return len(self._dd)

    def __iter__(self):
        return self._dd.values()

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        offsets = list(self._dd._index.values())
        return self._dd._read(offsets[i])

    def __reduce__(self):
        return (list, (list(self),))

"""The spill manager: one memory budget, many spillable consumers.

A :class:`SpillManager` is attached to an executor when
``RuntimeConfig.memory_budget_bytes`` is set.  It does three things:

* **accounting** — consumers ``reserve``/``release`` estimated bytes
  for the records they hold resident; the estimate is a sampled
  ``sys.getsizeof`` walk over a handful of records (estimating, not
  serializing — the budget is a dam height, not an audit),
* **admission** — ``over_budget()`` is the single question every
  spillable structure asks before growing (the out-of-core algorithms
  ask it once per run, at the record where the reservation crosses),
* **bookkeeping** — every frame written to disk is counted on the
  ``records_spilled`` / ``bytes_spilled`` metrics (physical counters:
  excluded from cross-backend logical comparisons), and every write and
  read-back runs inside a ``storage``-category tracer span
  (:meth:`SpillManager.io_span`), so spill I/O is billed to the storage
  layer rather than to the operator that spilled.

Spill files are :mod:`repro.storage.format` files — the one header,
then length-prefixed pickle frames — allocated inside the manager's
:class:`~repro.storage.session.StorageSession` so cleanup is the
session's problem, not each consumer's.  The engine writes **run
frames** (:meth:`SpillFile.append_run`): what the Grace hash passes and
the external sort spill, one tuple of parallel vectors, e.g. ``(seqs,
keys, records)``, pickled as is.  Vectors, not ``(seq, key, record)``
triples: no per-record wrapper tuple on either side of the disk.
Pickled rather than raw-buffer columns because a run's vectors are
short lists of small ints: on 240 ``(int, int)`` records pickling
writes half the bytes of int64 columns and encodes 3x faster, and reads
back as fast.  :meth:`SpillFile.append` writes a pickled record list
(a row frame); no engine path calls it.

Iterating a file yields its frames in write order, each as written: a
vector tuple for a run frame, a record list for a row frame.
"""

from __future__ import annotations

import os
import sys
from contextlib import nullcontext

from repro.common.batch import RecordBatch
from repro.storage.format import read_frames, write_frame, write_header

_SIZE_SAMPLE = 16


def estimate_record_bytes(records, sample: int = _SIZE_SAMPLE) -> int:
    """Mean estimated bytes per record over a small prefix sample.

    One level deep: the tuple plus its fields.  Nested containers are
    charged their shallow size only — cheap and stable is worth more
    here than exact, since the estimate only decides *when* to spill,
    never *what the results are*.  A :class:`RecordBatch` whose column
    view is all fixed-width skips the sampling walk entirely — its
    payload size is exact arithmetic over the column buffers.
    """
    if isinstance(records, RecordBatch):
        exact = records.nbytes()
        if exact is not None and len(records):
            return max(1, exact // len(records))
        records = records.records
    if not records:
        return 0
    total = 0
    count = 0
    for record in records[:sample]:
        total += sys.getsizeof(record)
        if isinstance(record, tuple):
            for field in record:
                total += sys.getsizeof(field)
        count += 1
    return max(1, total // count)


class SpillFile:
    """One write-then-read scratch file of run or row frames."""

    def __init__(self, path: str):
        self.path = path
        self.frames = 0
        self.records = 0
        self.bytes_written = 0
        self._fh = open(path, "wb")
        write_header(self._fh)

    def append(self, entries: list) -> int:
        """Write one row frame, the pickled record list ``entries``;
        returns frame bytes."""
        return self._write(entries, len(entries))

    def append_run(self, run: tuple) -> int:
        """Write one run frame — a tuple of parallel vectors; returns
        frame bytes.  It reads back as the same tuple."""
        return self._write(run, len(run[0]))

    def _write(self, payload, records: int) -> int:
        nbytes = write_frame(self._fh, payload)
        self.frames += 1
        self.records += records
        self.bytes_written += nbytes
        return nbytes

    def finish(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __iter__(self):
        """Yield frames in write order: vector tuples, record lists."""
        self.finish()
        return read_frames(self.path)

    def read_entries(self) -> list:
        """All rows of a row-frame file, flattened, in write order."""
        out: list = []
        for frame in self:
            out.extend(frame)
        return out

    def delete(self) -> None:
        self.finish()
        try:
            os.unlink(self.path)
        except OSError:
            pass


class SpillManager:
    """Process-wide budget accounting plus spill-file allocation."""

    def __init__(self, budget_bytes: int, session, metrics=None):
        if budget_bytes < 1:
            raise ValueError(
                f"budget_bytes must be >= 1, got {budget_bytes}"
            )
        self.budget_bytes = budget_bytes
        self.session = session
        self.metrics = metrics
        self.tracked_bytes = 0
        self.peak_tracked_bytes = 0
        self.spill_events = 0
        self.spill_files = 0
        self.records_spilled = 0
        self.bytes_spilled = 0

    @property
    def checker(self):
        """The metrics collector's invariant checker, if attached."""
        if self.metrics is None:
            return None
        return self.metrics.invariants

    def telemetry_probe(self) -> dict:
        """Gauge samples for the registry's superstep-boundary poll."""
        return {
            "spill.resident_bytes": self.tracked_bytes,
            "spill.budget_utilization":
                self.tracked_bytes / self.budget_bytes,
        }

    # ------------------------------------------------------------------
    # accounting

    def reserve(self, nbytes: int) -> None:
        self.tracked_bytes += nbytes
        if self.tracked_bytes > self.peak_tracked_bytes:
            self.peak_tracked_bytes = self.tracked_bytes

    def release(self, nbytes: int) -> None:
        self.tracked_bytes -= nbytes
        if self.tracked_bytes < 0:  # defensive: estimates must pair up
            self.tracked_bytes = 0

    def over_budget(self) -> bool:
        return self.tracked_bytes > self.budget_bytes

    # ------------------------------------------------------------------
    # spilling

    def new_spill_file(self, prefix: str = "spill") -> SpillFile:
        self.spill_files += 1
        return SpillFile(self.session.new_file(prefix))

    def io_span(self, kind: str, operator: str):
        """A ``storage`` span ``<kind>:<operator>`` around one spill
        write or read-back (``kind`` is ``spill-write`` or
        ``spill-read``); a no-op context without a tracer."""
        tracer = self.metrics.tracer if self.metrics is not None else None
        if tracer is None:
            return nullcontext()
        return tracer.span(f"{kind}:{operator}", category="storage")

    def read_frames(self, spill: SpillFile, operator: str):
        """Yield ``spill``'s frames in write order, each read inside a
        ``spill-read`` storage span (the consumer's work is not)."""
        frames = iter(spill)
        while True:
            with self.io_span("spill-read", operator):
                frame = next(frames, None)
            if frame is None:
                return
            yield frame

    def note_spill(self, operator: str, records: int, nbytes: int) -> None:
        """Count one frame written to disk on behalf of ``operator``."""
        self.spill_events += 1
        self.records_spilled += records
        self.bytes_spilled += nbytes
        if self.metrics is not None:
            self.metrics.add_spilled(records, nbytes)

"""External sort: budget-bounded run generation plus k-way merge.

The sort-based drivers (`run_sort_aggregate`, `run_sort_merge_join`)
establish order with a *stable* in-memory sort on the key vector, so
equal keys keep arrival order.  The external sorter takes its input as
runs ``(seqs, keys, records)`` (:func:`repro.runtime.drivers._runs`),
keeps the resident records as the same three vectors, and sorts a
sorted run with the in-memory drivers' own stable key permutation —
the resident vectors are in arrival order, so that is "key order,
arrival order within equal keys".  The k-way :func:`heapq.merge` then
compares ``(key, seq, record)`` triples: ``seq`` is unique within one
sorter, so a comparison never reaches two records, and the merge
reproduces the in-memory stable sort bit for bit, regardless of how
many runs the budget forced.

Admission follows the record-at-a-time rule exactly — no reservation
for the first 15 records, then one estimate per record, and a flush at
the first record that is over budget once at least ``_MIN_RUN`` records
are resident — but is applied per run segment, ending each segment at
that record (see :mod:`repro.storage.hashtable`).  Sorted runs are
written as run frames ``(keys, seqs, records)`` of ``_RUN_FRAME``
records into version-stamped spill files; the spill conservation law
(``resident + spilled == routed``) is audited when the sorter seals.
"""

from __future__ import annotations

import heapq

from repro.runtime import drivers
from repro.storage.spill import estimate_record_bytes

_ENTRY_OVERHEAD = 64
#: records admitted before the size estimate settles
_UNESTIMATED = 15
#: never flush a run smaller than this, however tiny the budget —
#: degenerate one-record runs would make merge fan-in O(n)
_MIN_RUN = 16
_RUN_FRAME = 512


class ExternalSorter:
    """Accumulate runs, spill sorted runs, merge-iterate in order."""

    def __init__(self, manager, operator: str):
        self.manager = manager
        self.operator = operator
        # the resident records, arrival order, as parallel vectors
        self.seqs: list = []
        self.keys: list = []
        self.records: list = []
        self.runs: list = []
        self.routed = 0
        self.spilled = 0
        self._est = None

    def add_run(self, seqs, keys, records) -> None:
        n = len(seqs)
        lo = 0
        while lo < n:
            if self._est is None and self.routed < _UNESTIMATED:
                hi = min(n, lo + _UNESTIMATED - self.routed)
                self._admit(seqs, keys, records, lo, hi)
                lo = hi
                continue
            if self._est is None:
                self._settle_estimate()
            # end the segment at the first record that may flush
            manager = self.manager
            room = (manager.budget_bytes - manager.tracked_bytes) \
                // self._est + 1
            hi = min(n, lo + max(1, room, _MIN_RUN - len(self.seqs)))
            self._admit(seqs, keys, records, lo, hi)
            manager.reserve((hi - lo) * self._est)
            if manager.over_budget() and len(self.seqs) >= _MIN_RUN:
                self._flush_run()
            lo = hi

    def _admit(self, seqs, keys, records, lo, hi) -> None:
        self.seqs.extend(seqs[lo:hi])
        self.keys.extend(keys[lo:hi])
        self.records.extend(records[lo:hi])
        self.routed += hi - lo

    def _settle_estimate(self) -> None:
        self._est = estimate_record_bytes(self.records) + _ENTRY_OVERHEAD
        self.manager.reserve(self._est * len(self.records))

    def _sorted(self) -> tuple:
        """The resident ``(keys, seqs, records)`` in ``(key, seq)`` order."""
        order = drivers._sort_permutation(self.keys)
        return tuple(
            [vector[i] for i in order]
            for vector in (self.keys, self.seqs, self.records)
        )

    def _flush_run(self) -> None:
        count = len(self.seqs)
        keys, seqs, records = self._sorted()
        self.seqs, self.keys, self.records = [], [], []
        with self.manager.io_span("spill-write", self.operator):
            run = self.manager.new_spill_file(prefix=f"sort-{self.operator}")
            for start in range(0, count, _RUN_FRAME):
                stop = start + _RUN_FRAME
                nbytes = run.append_run(
                    (keys[start:stop], seqs[start:stop],
                     records[start:stop])
                )
                self.manager.note_spill(
                    self.operator, min(stop, count) - start, nbytes
                )
            run.finish()
        self.runs.append(run)
        self.spilled += count
        self.manager.release(self._est * count)

    def merge(self):
        """Seal the sorter; yields ``(key, seq, record)`` in order."""
        if self._est is None:
            self._settle_estimate()
        checker = self.manager.checker
        if checker is not None:
            checker.check_spill(
                self.operator, self.routed, len(self.seqs), self.spilled
            )
        streams = [self._run_entries(run) for run in self.runs]
        streams.append(zip(*self._sorted()))
        try:
            if len(streams) == 1:
                yield from streams[0]
            else:
                yield from heapq.merge(*streams)
        finally:
            self.close()

    def _run_entries(self, run):
        for frame in self.manager.read_frames(run, self.operator):
            yield from zip(*frame)

    def close(self) -> None:
        if self.seqs:
            self.manager.release(self._est * len(self.seqs))
            self.seqs, self.keys, self.records = [], [], []
        for run in self.runs:
            run.delete()
        self.runs = []


# ----------------------------------------------------------------------
# driver algorithms


def spilled_sort_aggregate(manager, operator: str, runs, fn) -> list:
    """Combinable REDUCE over externally sorted runs; key-sorted output."""
    sorter = ExternalSorter(manager, operator)
    for run in runs:
        sorter.add_run(*run)
    out: list = []
    current_key = object()
    acc = None
    for k, _seq, record in sorter.merge():
        if k != current_key:
            if acc is not None:
                out.append(acc)
            current_key, acc = k, record
        else:
            acc = fn(acc, record)
    if acc is not None:
        out.append(acc)
    return out


def spilled_sort_merge_join(manager, operator: str, left_runs, right_runs,
                            fn, flat) -> list:
    """Merge join over two externally sorted streams.

    Matches the in-memory driver: advance past unmatched keys, and for
    each shared key nest left group (outer) over right group (inner),
    both in stable (arrival) order.
    """
    left_sorter = ExternalSorter(manager, f"{operator}.left")
    for run in left_runs:
        left_sorter.add_run(*run)
    right_sorter = ExternalSorter(manager, f"{operator}.right")
    for run in right_runs:
        right_sorter.add_run(*run)

    out: list = []
    left = left_sorter.merge()
    right = right_sorter.merge()
    lhead = next(left, None)
    rhead = next(right, None)
    while lhead is not None and rhead is not None:
        lk = lhead[0]
        rk = rhead[0]
        if lk < rk:
            lhead = next(left, None)
        elif rk < lk:
            rhead = next(right, None)
        else:
            lgroup = [lhead[2]]
            lhead = next(left, None)
            while lhead is not None and lhead[0] == lk:
                lgroup.append(lhead[2])
                lhead = next(left, None)
            rgroup = [rhead[2]]
            rhead = next(right, None)
            while rhead is not None and rhead[0] == rk:
                rgroup.append(rhead[2])
                rhead = next(right, None)
            for a in lgroup:
                for b in rgroup:
                    drivers._emit_join_result(fn(a, b), flat, out)
    left.close()
    right.close()
    return out

"""The partitioned solution set of an incremental iteration (Section 5).

The solution set ``S`` is a bag of records uniquely identified by a key
``k(s)``.  It lives partitioned by that key across all partitions, each
partition holding a primary hash index, so that lookups from the stateful
solution operators and point updates from the delta set are O(1)
(Section 5.3).  Lookups are run-wise reads of the partition mapping: the
engine's operators map a run's keys through its ``get`` in one pass and
count the accesses once per run.

The delta union ``S ∪̇ D`` replaces the stored record on key collision;
when a ``should_replace(new, old)`` comparator is supplied, a colliding
record only replaces the stored one if the comparator approves — this is
the CPO comparator of Section 5.1, which guarantees every applied update
is a successor state and discards regressive updates.
"""

from __future__ import annotations

from repro.common.batch import RecordBatch
from repro.common.keys import KeyExtractor
from repro.common.hashing import partition_index


class SolutionSetIndex:
    """Hash-indexed, key-partitioned solution set with counted accesses."""

    def __init__(self, key_fields, parallelism, metrics=None, should_replace=None):
        self.key_fields = key_fields
        self.key = KeyExtractor(key_fields)
        self.parallelism = parallelism
        self.metrics = metrics
        self.should_replace = should_replace
        self._partitions: list = []
        self.restore([[] for _ in range(parallelism)])

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def build(cls, records, key_fields, parallelism, metrics=None,
              should_replace=None, batch_size=None, columnar=True, **extra):
        """Build the index from a flat or partitioned record collection.

        Records are routed to partitions by the stable hash of their key,
        matching the runtime's hash partitioner, so solution-join probes
        arriving over a hash channel land in the right partition.  The
        routing works batch-at-a-time from each chunk's cached key and
        hash vectors (``batch_size=None`` = one chunk), in one vectorized
        pass over a chunk's int64 key column when it has one — same
        targets, same insertion order.  ``columnar`` has no effect;
        ``benchmarks/perf/probes.py`` still passes it.

        Partitioned input accepts ``list`` or :class:`RecordBatch`
        partitions (a batch-producing channel may hand its chunks over
        unmaterialized).

        ``extra`` keyword arguments pass through to the subclass
        constructor (the disk-backed variant takes its spill manager
        this way).
        """
        index = cls(key_fields, parallelism, metrics, should_replace, **extra)
        if records and isinstance(records[0], (list, RecordBatch)):
            flat = [record for part in records for record in part]
        else:
            flat = list(records)
        if flat:
            partitions = index._partitions
            for chunk in RecordBatch.wrap(flat, key_fields).split(batch_size):
                targets = chunk.partition_targets(parallelism)
                for k, target, record in zip(
                    chunk.keys, targets, chunk.records
                ):
                    partitions[target][k] = record
        index.note_writes()
        return index

    # ------------------------------------------------------------------
    # reads

    def lookup(self, partition: int, key_value):
        """Partition-local point lookup; counts a solution-set access.
        The reference and probe API, not the engine's run-wise reads."""
        if self.metrics is not None:
            self.metrics.add_solution_access()
            checker = self.metrics.invariants
            if checker is not None:
                checker.check_solution_lookup(
                    partition, key_value, self.parallelism
                )
        return self._partitions[partition].get(key_value)

    def lookup_global(self, key_value):
        """:meth:`lookup` in the partition that owns ``key_value``."""
        return self.lookup(partition_index(key_value, self.parallelism), key_value)

    def __len__(self):
        return sum(len(p) for p in self._partitions)

    def partition_sizes(self):
        return [len(p) for p in self._partitions]

    # ------------------------------------------------------------------
    # writes (the ∪̇ operator)

    def apply_record(self, record):
        """Apply one delta record; returns the applied record or ``None``.

        ``None`` means the comparator rejected the update (the stored
        record already supersedes it), so the record contributes neither
        to the solution nor — per Section 5.1 — to the reported delta.

        Every application probes the index exactly once, and that probe
        counts as a solution-set access — including comparator-rejected
        updates, which inspect the stored record without changing it
        (the Figure 2/9 'vertices inspected' series depends on this).
        """
        k = self.key(record)
        part = self._partitions[partition_index(k, self.parallelism)]
        if self.metrics is not None:
            self.metrics.add_solution_access()
        old = part.get(k)
        if old is not None and self.should_replace is not None:
            if not self.should_replace(record, old):
                return None
        part[k] = record
        if self.metrics is not None:
            self.metrics.add_solution_update()
        return record

    def apply_delta(self, records, batch_size=None, columnar=True) -> list:
        """Apply a batch of delta records; returns the accepted records.

        The delta is consumed in record-batch chunks: the replaced-record
        pre-check works from each chunk's cached key and hash vectors
        (the partition targets vectorize over the int64 key column when
        the chunk has one), while the actual ∪̇ application still goes
        through :meth:`apply_record` one record at a time — the
        per-record path stays the oracle the audit (and subclass
        instrumentation) hooks.  ``columnar`` has no effect;
        ``benchmarks/perf/probes.py`` still passes it.

        Under invariant checking, every chunk's cached vectors are
        audited against per-record recomputation, ``|S|`` must move by
        exactly accepted-minus-replaced records, and every probed record
        must have been counted as a solution access.
        """
        if not isinstance(records, list):
            records = list(records)
        checker = (
            self.metrics.invariants if self.metrics is not None else None
        )
        applied = []
        replaced = 0
        if checker is None:
            for record in records:
                accepted = self.apply_record(record)
                if accepted is not None:
                    applied.append(accepted)
            self.note_writes()
            return applied
        size_before = len(self)
        accesses_before = self.metrics.solution_accesses
        partitions = self._partitions
        parallelism = self.parallelism
        if records:
            for chunk in RecordBatch.wrap(records, self.key_fields).split(
                batch_size
            ):
                checker.check_batch(chunk)
                targets = chunk.partition_targets(parallelism)
                for k, target, record in zip(
                    chunk.keys, targets, chunk.records
                ):
                    existing = k in partitions[target]
                    accepted = self.apply_record(record)
                    if accepted is not None:
                        applied.append(accepted)
                        if existing:
                            replaced += 1
        self.note_writes()
        checker.check_delta_application(
            "apply_delta",
            size_before,
            len(self),
            accepted=len(applied),
            replaced=replaced,
            probed=len(records),
            accesses_counted=(
                self.metrics.solution_accesses - accesses_before
            ),
        )
        return applied

    def note_writes(self) -> None:
        """Bill state written since the last call (once per build, delta
        application or commit) to the spill counters: in memory, none."""

    # ------------------------------------------------------------------
    # checkpoints (Section 4.2)

    def snapshot(self) -> list[list]:
        """One list of ``(key, record)`` items per partition, in
        iteration order: the state a checkpoint logs."""
        return [list(part.items()) for part in self._partitions]

    def restore(self, state) -> None:
        """Rebuild every partition from a :meth:`snapshot`."""
        self._partitions = [dict(items) for items in state]

    # ------------------------------------------------------------------
    # export

    def to_partitions(self) -> list[list]:
        return [list(part.values()) for part in self._partitions]

    def records(self) -> list:
        return [record for part in self._partitions for record in part.values()]

    def as_dict(self) -> dict:
        """Key -> record over all partitions (test/debug helper)."""
        merged = {}
        for part in self._partitions:
            merged.update(part)
        return merged


class DiskBackedSolutionSetIndex(SolutionSetIndex):
    """A solution set whose partition state lives on disk.

    Each partition's ``dict`` is swapped for a
    :class:`~repro.storage.diskdict.DiskDict` — same first-insertion
    iteration order, same replacement semantics, but records rest in an
    append-only log inside the spill session instead of the heap.
    Nothing else changes: the superstep barrier's commit and
    the microstep runtime's arrival-order fold both read and write the
    partition mapping directly (``get``, ``in``, item assignment), which
    a ``DiskDict`` answers exactly as a ``dict`` does, and
    :meth:`SolutionSetIndex.apply_delta` is inherited unchanged.  So an
    out-of-core delta iteration takes the in-memory decision sequence
    and produces bitwise-identical results.  :meth:`restore` rebuilds
    the logs from a checkpoint inside the same spill session, and
    deletes the logs they replace.

    ``to_partitions`` returns lazy
    :class:`~repro.storage.diskdict.DiskPartitionView` sequences; a
    forward ship passes them through unmaterialized, so exporting the
    converged solution does not re-inflate it into memory.
    """

    def __init__(self, key_fields, parallelism, metrics=None,
                 should_replace=None, manager=None):
        if manager is None:
            raise ValueError(
                "DiskBackedSolutionSetIndex requires a SpillManager "
                "(pass manager=...)"
            )
        self.manager = manager
        super().__init__(key_fields, parallelism, metrics, should_replace)

    def restore(self, state) -> None:
        """Rebuild every partition's log from a snapshot in this index's
        spill session, and delete the logs they replace."""
        from repro.storage.diskdict import DiskDict

        replaced = self._partitions
        self._partitions = []
        for p, items in enumerate(state):
            part = DiskDict(self.manager.session.new_file(
                prefix=f"solution-p{p}", suffix=".log"
            ))
            for key, record in items:
                part[key] = record
            self._partitions.append(part)
        for part in replaced:
            part.delete()

    def to_partitions(self) -> list:
        from repro.storage.diskdict import DiskPartitionView

        return [DiskPartitionView(part) for part in self._partitions]

    def disk_bytes_written(self) -> int:
        return sum(part.bytes_written for part in self._partitions)

    def note_writes(self) -> None:
        """Count the log frames appended since the last note as one
        spill, inside a ``spill-write:solution-set`` storage span (so
        spill-write spans still sum to ``records_spilled``)."""
        frames = nbytes = 0
        for part in self._partitions:
            part_frames, part_bytes = part.take_unbilled()
            frames += part_frames
            nbytes += part_bytes
        if frames:
            with self.manager.io_span("spill-write", "solution-set"):
                self.manager.note_spill("solution-set", frames, nbytes)

    def close(self) -> None:
        for part in self._partitions:
            part.close()

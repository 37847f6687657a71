"""Execution metrics: logical cost counters and per-superstep snapshots.

Wall-clock numbers from a single-process simulator are noisy and scale-
dependent; the *logical* counters here (records shipped locally/remotely,
records processed per operator, solution-set accesses and updates, workset
sizes) are deterministic and carry the paper's comparisons exactly.  The
benchmark harness reports both.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

from repro.common.errors import InvariantViolation


@dataclass
class IterationStats:
    """Counters scoped to one superstep of an iteration."""

    superstep: int
    duration_s: float = 0.0
    records_processed: int = 0
    records_shipped_local: int = 0
    records_shipped_remote: int = 0
    workset_size: int = 0
    delta_size: int = 0
    solution_accesses: int = 0
    solution_updates: int = 0
    #: serialized bytes this superstep put on the wire (SPMD backends
    #: only — the simulator never serializes records)
    bytes_shipped: int = 0
    #: :class:`~repro.common.batch.RecordBatch` chunks the channels
    #: framed this superstep (physical, like bytes: the chunking depends
    #: on the backend's partition localization)
    batches_shipped: int = 0
    cache_hits: int = 0
    cache_builds: int = 0
    #: records written to spill files this superstep (physical, like
    #: bytes: spill decisions depend on each process's resident share)
    records_spilled: int = 0
    #: bytes written to spill files this superstep
    bytes_spilled: int = 0
    #: fixed-width column buffers that crossed the shm ring as raw
    #: memcpy this superstep (physical: only the worker pool's
    #: fixed-width column frames take the zero-copy path)
    columns_zero_copied: int = 0
    #: payload bytes of those zero-copied buffers
    bytes_zero_copied: int = 0

    @property
    def messages(self) -> int:
        """Cross-partition record transfers — the paper's 'messages sent'."""
        return self.records_shipped_remote

    def as_dict(self) -> dict:
        """Plain-dict view, used by ``MetricsCollector.snapshot``."""
        return {
            "superstep": self.superstep,
            "duration_s": self.duration_s,
            "records_processed": self.records_processed,
            "records_shipped_local": self.records_shipped_local,
            "records_shipped_remote": self.records_shipped_remote,
            "workset_size": self.workset_size,
            "delta_size": self.delta_size,
            "solution_accesses": self.solution_accesses,
            "solution_updates": self.solution_updates,
            "bytes_shipped": self.bytes_shipped,
            "batches_shipped": self.batches_shipped,
            "cache_hits": self.cache_hits,
            "cache_builds": self.cache_builds,
            "records_spilled": self.records_spilled,
            "bytes_spilled": self.bytes_spilled,
            "columns_zero_copied": self.columns_zero_copied,
            "bytes_zero_copied": self.bytes_zero_copied,
            "messages": self.messages,
        }


@dataclass
class MetricsCollector:
    """Accumulates counters for one environment; cheap enough to always run."""

    records_processed: Counter = field(default_factory=Counter)
    records_shipped_local: int = 0
    records_shipped_remote: int = 0
    solution_accesses: int = 0
    solution_updates: int = 0
    supersteps: int = 0
    cache_hits: int = 0
    cache_builds: int = 0
    #: serialized bytes actually put on the wire (SPMD backends only;
    #: the in-process simulator never serializes records)
    bytes_shipped: int = 0
    #: RecordBatch chunks framed by the shipping channels (physical:
    #: per-worker localization changes how records fall into chunks)
    batches_shipped: int = 0
    #: records / bytes written to spill files by the out-of-core
    #: substrate (physical: whether state crosses the budget depends on
    #: each process's resident share, so backends may differ)
    records_spilled: int = 0
    bytes_spilled: int = 0
    #: column buffers / payload bytes the SPMD fabric shipped as raw
    #: shm memcpy without pickling (physical: the simulator never
    #: serializes, and chunk framing differs per backend)
    columns_zero_copied: int = 0
    bytes_zero_copied: int = 0
    #: always 0: mid-iteration plan switching was deleted (DESIGN.md §6).
    #: ``benchmarks/perf/layers.py`` still reads this attribute by name
    #: and a non-benchmark PR may not edit that directory; the benchmark
    #: PR that drops its ``optimizer.plan_switches`` row drops this too
    plan_switches: int = 0
    iteration_log: list[IterationStats] = field(default_factory=list)
    #: optional :class:`~repro.runtime.invariants.InvariantChecker`; when
    #: attached (``RuntimeConfig.check_invariants``), every counter hook
    #: mirrors into it and the runtime layers audit their conservation laws
    invariants: object | None = None
    #: optional :class:`~repro.observability.Tracer`; when attached
    #: (``RuntimeConfig.trace``), superstep barriers open/close spans and
    #: cache events emit instant markers
    tracer: object | None = None
    #: optional :class:`~repro.observability.telemetry.MetricRegistry`;
    #: when attached (``RuntimeConfig.telemetry``), superstep barriers
    #: feed the live instruments and resource time series.  Unlike the
    #: checker and tracer it never influences results or logical
    #: counters, so ``merge`` ignores it (workers detach their registry
    #: and ship a snapshot instead)
    telemetry: object | None = None
    _open_superstep: IterationStats | None = None
    _superstep_started: float = 0.0
    _superstep_span: object | None = None

    # ------------------------------------------------------------------
    # raw counter hooks (called by channels / drivers / solution set)

    def add_processed(self, operator_name: str, count: int = 1):
        self.records_processed[operator_name] += count
        if self._open_superstep is not None:
            self._open_superstep.records_processed += count
        if self.invariants is not None:
            self.invariants.on_counter(
                "processed", count, self._open_superstep is not None
            )

    def add_shipped(self, local: int, remote: int):
        self.records_shipped_local += local
        self.records_shipped_remote += remote
        if self._open_superstep is not None:
            self._open_superstep.records_shipped_local += local
            self._open_superstep.records_shipped_remote += remote
        if self.invariants is not None:
            in_step = self._open_superstep is not None
            self.invariants.on_counter("shipped_local", local, in_step)
            self.invariants.on_counter("shipped_remote", remote, in_step)

    def add_solution_access(self, count: int = 1):
        self.solution_accesses += count
        if self._open_superstep is not None:
            self._open_superstep.solution_accesses += count
        if self.invariants is not None:
            self.invariants.on_counter(
                "solution_accesses", count, self._open_superstep is not None
            )

    def add_solution_update(self, count: int = 1):
        self.solution_updates += count
        if self._open_superstep is not None:
            self._open_superstep.solution_updates += count
        if self.invariants is not None:
            self.invariants.on_counter(
                "solution_updates", count, self._open_superstep is not None
            )

    def add_bytes_shipped(self, count: int):
        """Serialized wire bytes, attributed to the open superstep."""
        self.bytes_shipped += count
        if self._open_superstep is not None:
            self._open_superstep.bytes_shipped += count
        if self.invariants is not None:
            self.invariants.on_counter(
                "bytes_shipped", count, self._open_superstep is not None
            )

    def add_batches_shipped(self, count: int = 1):
        """RecordBatch chunks framed on a channel (the batched data
        plane's per-batch overhead unit; the cost model's
        ``per_batch_overhead`` term prices exactly these)."""
        self.batches_shipped += count
        if self._open_superstep is not None:
            self._open_superstep.batches_shipped += count
        if self.invariants is not None:
            self.invariants.on_counter(
                "batches_shipped", count, self._open_superstep is not None
            )

    def add_cache_hit(self, count: int = 1):
        self.cache_hits += count
        if self._open_superstep is not None:
            self._open_superstep.cache_hits += count
        if self.invariants is not None:
            self.invariants.on_counter(
                "cache_hits", count, self._open_superstep is not None
            )
        if self.tracer is not None:
            self.tracer.instant("cache:hit", category="cache")

    def add_cache_build(self, count: int = 1):
        self.cache_builds += count
        if self._open_superstep is not None:
            self._open_superstep.cache_builds += count
        if self.invariants is not None:
            self.invariants.on_counter(
                "cache_builds", count, self._open_superstep is not None
            )
        if self.tracer is not None:
            self.tracer.instant("cache:build", category="cache")

    def add_spilled(self, records: int, nbytes: int):
        """One spill-file frame written by the out-of-core substrate."""
        self.records_spilled += records
        self.bytes_spilled += nbytes
        if self._open_superstep is not None:
            self._open_superstep.records_spilled += records
            self._open_superstep.bytes_spilled += nbytes
        if self.invariants is not None:
            in_step = self._open_superstep is not None
            self.invariants.on_counter("records_spilled", records, in_step)
            self.invariants.on_counter("bytes_spilled", nbytes, in_step)

    def add_zero_copied(self, columns: int, nbytes: int):
        """Column buffers the fabric memcpy'd into shm without pickling."""
        self.columns_zero_copied += columns
        self.bytes_zero_copied += nbytes
        if self._open_superstep is not None:
            self._open_superstep.columns_zero_copied += columns
            self._open_superstep.bytes_zero_copied += nbytes
        if self.invariants is not None:
            in_step = self._open_superstep is not None
            self.invariants.on_counter("columns_zero_copied", columns,
                                       in_step)
            self.invariants.on_counter("bytes_zero_copied", nbytes, in_step)

    # ------------------------------------------------------------------
    # superstep scoping

    def begin_superstep(self, superstep: int):
        if self._open_superstep is not None:
            raise InvariantViolation(
                f"begin_superstep({superstep}) while superstep "
                f"{self._open_superstep.superstep} is still open — the "
                "previous barrier was never closed"
            )
        if self.invariants is not None:
            self.invariants.on_begin_superstep(superstep)
        if self.tracer is not None:
            self._superstep_span = self.tracer.begin(
                f"superstep:{superstep}", category="superstep",
                superstep=superstep,
            )
        self._open_superstep = IterationStats(superstep=superstep)
        if self.telemetry is not None:
            self.telemetry.note_superstep_begin(superstep)
        self._superstep_started = time.perf_counter()

    def end_superstep(self, workset_size: int = 0, delta_size: int = 0):
        stats = self._open_superstep
        if stats is None:
            raise InvariantViolation(
                "end_superstep without a matching begin_superstep — "
                "superstep barriers must be balanced"
            )
        if self.invariants is not None:
            self.invariants.on_end_superstep()
        stats.duration_s = time.perf_counter() - self._superstep_started
        stats.workset_size = workset_size
        stats.delta_size = delta_size
        self.iteration_log.append(stats)
        self.supersteps += 1
        self._open_superstep = None
        if self.tracer is not None and self._superstep_span is not None:
            # sizes are barrier outputs, not counter deltas: record them
            # on the span explicitly so the trace law can reconcile them
            self.tracer.end(
                self._superstep_span,
                counters={"workset_size": workset_size,
                          "delta_size": delta_size},
            )
            self._superstep_span = None
        if self.telemetry is not None:
            self.telemetry.note_superstep_end(stats)
        return stats

    def verify_invariants(self):
        """Audit attribution totals if a checker is attached (else no-op)."""
        if self.invariants is not None:
            self.invariants.verify_totals(self)
            if self.tracer is not None:
                self.invariants.check_trace(self.tracer, self)

    # ------------------------------------------------------------------
    # merging collectors across workers / phases

    def merge(self, other: "MetricsCollector",
              align_supersteps: bool = True) -> "MetricsCollector":
        """Fold another collector's counters into this one.

        ``align_supersteps=True`` merges collectors of *parallel* workers
        that executed the same supersteps in lockstep: their iteration
        logs are paired index by index (counters and sizes sum, the
        barrier duration is the slowest worker's) and the superstep count
        stays that of one worker.  ``align_supersteps=False`` absorbs a
        *sequential* phase: the other log is appended and superstep
        counts add.
        """
        if self._open_superstep is not None or \
                other._open_superstep is not None:
            raise InvariantViolation(
                "cannot merge collectors while a superstep is open"
            )
        if (self.invariants is None) != (other.invariants is None):
            raise InvariantViolation(
                "cannot merge collectors when only one carries an "
                "invariant checker — attribution shadows would diverge"
            )
        if (self.tracer is None) != (other.tracer is None):
            raise InvariantViolation(
                "cannot merge collectors when only one carries a tracer — "
                "the merged trace would silently drop spans"
            )
        # Counter.update (not +=): iadd drops zero entries, and operator
        # keys with zero counts must survive for cross-backend equality
        self.records_processed.update(other.records_processed)
        self.records_shipped_local += other.records_shipped_local
        self.records_shipped_remote += other.records_shipped_remote
        self.solution_accesses += other.solution_accesses
        self.solution_updates += other.solution_updates
        self.cache_hits += other.cache_hits
        self.cache_builds += other.cache_builds
        self.bytes_shipped += other.bytes_shipped
        self.batches_shipped += other.batches_shipped
        self.records_spilled += other.records_spilled
        self.bytes_spilled += other.bytes_spilled
        self.columns_zero_copied += other.columns_zero_copied
        self.bytes_zero_copied += other.bytes_zero_copied
        if align_supersteps:
            if len(self.iteration_log) != len(other.iteration_log) or \
                    self.supersteps != other.supersteps:
                raise InvariantViolation(
                    f"cannot align supersteps: {len(self.iteration_log)} "
                    f"logged here vs {len(other.iteration_log)} in the "
                    "other collector — the workers were not in lockstep"
                )
            for mine, theirs in zip(self.iteration_log,
                                    other.iteration_log):
                if mine.superstep != theirs.superstep:
                    raise InvariantViolation(
                        f"superstep numbering diverged while aligning: "
                        f"{mine.superstep} vs {theirs.superstep}"
                    )
                mine.records_processed += theirs.records_processed
                mine.records_shipped_local += theirs.records_shipped_local
                mine.records_shipped_remote += theirs.records_shipped_remote
                mine.workset_size += theirs.workset_size
                mine.delta_size += theirs.delta_size
                mine.solution_accesses += theirs.solution_accesses
                mine.solution_updates += theirs.solution_updates
                mine.bytes_shipped += theirs.bytes_shipped
                mine.batches_shipped += theirs.batches_shipped
                mine.cache_hits += theirs.cache_hits
                mine.cache_builds += theirs.cache_builds
                mine.records_spilled += theirs.records_spilled
                mine.bytes_spilled += theirs.bytes_spilled
                mine.columns_zero_copied += theirs.columns_zero_copied
                mine.bytes_zero_copied += theirs.bytes_zero_copied
                mine.duration_s = max(mine.duration_s, theirs.duration_s)
        else:
            self.iteration_log.extend(other.iteration_log)
            self.supersteps += other.supersteps
        if self.invariants is not None and other.invariants is not None:
            self.invariants.absorb(other.invariants)
        if self.tracer is not None and other.tracer is not None:
            self.tracer.merge(other.tracer, align=align_supersteps)
        return self

    # ------------------------------------------------------------------

    @property
    def total_processed(self) -> int:
        return sum(self.records_processed.values())

    @property
    def messages(self) -> int:
        return self.records_shipped_remote

    def reset(self):
        self.records_processed.clear()
        self.records_shipped_local = 0
        self.records_shipped_remote = 0
        self.solution_accesses = 0
        self.solution_updates = 0
        self.supersteps = 0
        self.cache_hits = 0
        self.cache_builds = 0
        self.bytes_shipped = 0
        self.batches_shipped = 0
        self.records_spilled = 0
        self.bytes_spilled = 0
        self.columns_zero_copied = 0
        self.bytes_zero_copied = 0
        self.iteration_log.clear()
        self._open_superstep = None
        self._superstep_span = None
        if self.invariants is not None:
            self.invariants.reset()
        if self.tracer is not None:
            self.tracer.reset()

    def snapshot(self) -> dict:
        """A plain-dict view for reports and assertions."""
        return {
            "records_processed": dict(self.records_processed),
            "total_processed": self.total_processed,
            "records_shipped_local": self.records_shipped_local,
            "records_shipped_remote": self.records_shipped_remote,
            "messages": self.messages,
            "solution_accesses": self.solution_accesses,
            "solution_updates": self.solution_updates,
            "supersteps": self.supersteps,
            "cache_hits": self.cache_hits,
            "cache_builds": self.cache_builds,
            "bytes_shipped": self.bytes_shipped,
            "batches_shipped": self.batches_shipped,
            "records_spilled": self.records_spilled,
            "bytes_spilled": self.bytes_spilled,
            "columns_zero_copied": self.columns_zero_copied,
            "bytes_zero_copied": self.bytes_zero_copied,
            "iteration_log": [s.as_dict() for s in self.iteration_log],
        }

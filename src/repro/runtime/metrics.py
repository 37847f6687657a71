"""Execution metrics: logical cost counters and per-superstep snapshots.

Wall-clock numbers from a single-process simulator are noisy and scale-
dependent; the *logical* counters here (records shipped locally/remotely,
records processed per operator, solution-set accesses and updates, workset
sizes) are deterministic and carry the paper's comparisons exactly.  The
benchmark harness reports both.
"""

from __future__ import annotations

import re
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, fields

from repro.common.errors import InvariantViolation

_ID_SUFFIX = re.compile(r"#\d+")


def canonical_name(name) -> str:
    """Strip the ``#<node id>`` uniquifiers from a logical name."""
    return _ID_SUFFIX.sub("", str(name))


@dataclass
class AdditiveCounters:
    """The additive counters, declared once: :data:`COUNTERS` is derived
    from these fields and everything that sums, samples, checks or
    compares counters iterates it (DESIGN.md §3, "One counter schema").
    """

    # logical: deterministic, identical on every backend
    records_processed: int = 0
    records_shipped_local: int = 0
    records_shipped_remote: int = 0
    solution_accesses: int = 0
    solution_updates: int = 0
    # physical: legitimately differ between the simulator and workers
    #: serialized bytes put on the wire (SPMD backends only — the
    #: simulator never serializes records)
    bytes_shipped: int = 0
    #: :class:`~repro.common.batch.RecordBatch` chunks the channels
    #: framed (per-worker localization changes how records fall into
    #: chunks)
    batches_shipped: int = 0
    #: replicated drivers build (and hit) their caches per worker
    cache_hits: int = 0
    cache_builds: int = 0
    #: records / bytes written to spill files and to the disk-backed
    #: solution set's log (spill decisions depend on each process's
    #: resident share)
    records_spilled: int = 0
    bytes_spilled: int = 0
    #: fixed-width column buffers / payload bytes that crossed the shm
    #: ring as raw memcpy without pickling (only the worker pool's
    #: fixed-width column frames take the zero-copy path)
    columns_zero_copied: int = 0
    bytes_zero_copied: int = 0

    @property
    def messages(self) -> int:
        """Cross-partition record transfers — the paper's 'messages sent'."""
        return self.records_shipped_remote


#: every additive counter, in declaration order
COUNTERS = tuple(f.name for f in fields(AdditiveCounters))
#: the counters that must be identical across backends
LOGICAL_COUNTERS = ("records_processed", "records_shipped_local",
                    "records_shipped_remote", "solution_accesses",
                    "solution_updates")
#: barrier outputs every superstep logs next to its counters
BARRIER_SIZES = ("workset_size", "delta_size")
#: the collector's plain-int totals (``records_processed`` is a
#: per-operator ``Counter`` there)
_SCALAR_TOTALS = tuple(n for n in COUNTERS if n != "records_processed")


@dataclass(kw_only=True)
class IterationStats(AdditiveCounters):
    """Counters scoped to one superstep of an iteration."""

    superstep: int
    duration_s: float = 0.0
    workset_size: int = 0
    delta_size: int = 0

    def as_dict(self) -> dict:
        """Plain-dict view, used by ``MetricsCollector.snapshot``."""
        return {**asdict(self), "messages": self.messages}


@dataclass
class MetricsCollector(AdditiveCounters):
    """Accumulates counters for one environment; cheap enough to always run."""

    #: per-operator processed counts (the total is ``total_processed``)
    records_processed: Counter = field(default_factory=Counter)
    supersteps: int = 0
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
    #: feed its levels and resource time series.  It keeps no counts of
    #: its own: each job's counts reach it from this collector, through
    #: ``telemetry.bill_job``.  Unlike the checker and tracer it never
    #: influences results or logical counters, so ``merge`` ignores it
    #: (workers detach their registry and ship a snapshot instead)
    telemetry: object | None = None
    _open_superstep: IterationStats | None = None
    _superstep_started: float = 0.0
    _superstep_span: object | None = None

    @classmethod
    def for_config(cls, config, rank: int = 0) -> "MetricsCollector":
        """A fresh collector carrying the checker and tracer ``config``
        asks for (the tracer labelled with ``rank``)."""
        metrics = cls()
        if config.check_invariants:
            from repro.runtime.invariants import attach_checker
            attach_checker(metrics)
        if config.trace:
            from repro.observability import attach_tracer
            attach_tracer(metrics, rank=rank)
        return metrics

    # ------------------------------------------------------------------
    # raw counter hooks (called by channels / drivers / solution set)

    def _add(self, name: str, count: int):
        """The one counter hook: ``count`` more ``name`` in the total,
        then in the open superstep and the checker's shadow."""
        setattr(self, name, getattr(self, name) + count)
        self._attribute(name, count)

    def _attribute(self, name: str, count: int):
        step = self._open_superstep
        if step is not None:
            setattr(step, name, getattr(step, name) + count)
        if self.invariants is not None:
            self.invariants.on_counter(name, count, step is not None)

    def add_processed(self, operator_name: str, count: int = 1):
        self.records_processed[operator_name] += count
        self._attribute("records_processed", count)

    def add_shipped(self, local: int, remote: int):
        self._add("records_shipped_local", local)
        self._add("records_shipped_remote", remote)

    def add_solution_access(self, count: int = 1):
        self._add("solution_accesses", count)

    def add_solution_update(self, count: int = 1):
        self._add("solution_updates", count)

    def add_bytes_shipped(self, count: int):
        """Serialized wire bytes, attributed to the open superstep."""
        self._add("bytes_shipped", count)

    def add_batches_shipped(self, count: int = 1):
        """RecordBatch chunks framed on a channel (the batched data
        plane's per-batch overhead unit; the cost model's
        ``per_batch_overhead`` term prices exactly these)."""
        self._add("batches_shipped", count)

    def add_cache_hit(self, count: int = 1):
        self._add("cache_hits", count)
        if self.tracer is not None:
            self.tracer.instant("cache:hit", category="cache")

    def add_cache_build(self, count: int = 1):
        self._add("cache_builds", count)
        if self.tracer is not None:
            self.tracer.instant("cache:build", category="cache")

    def add_spilled(self, records: int, nbytes: int):
        """One spill-file frame written by the out-of-core substrate."""
        self._add("records_spilled", records)
        self._add("bytes_spilled", nbytes)

    def add_zero_copied(self, columns: int, nbytes: int):
        """Column buffers the fabric memcpy'd into shm without pickling."""
        self._add("columns_zero_copied", columns)
        self._add("bytes_zero_copied", nbytes)

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
        for name in _SCALAR_TOTALS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
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
                for name in COUNTERS + BARRIER_SIZES:
                    setattr(mine, name,
                            getattr(mine, name) + getattr(theirs, name))
                mine.duration_s = max(mine.duration_s, theirs.duration_s)
        else:
            self.iteration_log.extend(other.iteration_log)
            self.supersteps += other.supersteps
        if self.invariants is not None:
            self.invariants.absorb(other.invariants)
        if self.tracer is not None:
            self.tracer.merge(other.tracer, align=align_supersteps)
        return self

    # ------------------------------------------------------------------

    @property
    def total_processed(self) -> int:
        return sum(self.records_processed.values())

    def total(self, name: str) -> int:
        """The global total of counter ``name``."""
        if name == "records_processed":
            return self.total_processed
        return getattr(self, name)

    def sample(self) -> tuple:
        """The totals of :data:`COUNTERS`, in order — what the tracer
        diffs at span boundaries."""
        return tuple(map(self.total, COUNTERS))

    def reset(self):
        self.records_processed.clear()
        for name in _SCALAR_TOTALS:
            setattr(self, name, 0)
        self.supersteps = 0
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
            **{name: getattr(self, name) for name in _SCALAR_TOTALS},
            "messages": self.messages,
            "supersteps": self.supersteps,
            "iteration_log": [s.as_dict() for s in self.iteration_log],
        }

    def logical(self) -> dict:
        """The projection that must match across backends.

        :data:`LOGICAL_COUNTERS` totals, the superstep count and, per
        superstep, the logical counters and barrier sizes.  Operator
        names carry globally unique node ids (``update#12``) on which
        two environments compiling the same program disagree, so
        processed counts are summed per :func:`canonical_name`.
        """
        processed = Counter()
        for name, count in self.records_processed.items():
            processed[canonical_name(name)] += count
        out = {name: getattr(self, name) for name in LOGICAL_COUNTERS}
        out["records_processed"] = dict(processed)
        out["supersteps"] = self.supersteps
        per_step = ("superstep",) + BARRIER_SIZES + LOGICAL_COUNTERS
        out["iteration_log"] = [
            {name: getattr(entry, name) for name in per_step}
            for entry in self.iteration_log
        ]
        return out

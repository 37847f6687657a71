"""Execution environment: program entry point, sources, iteration builders.

One environment models one cluster session: it fixes the parallelism,
owns the metric collector, and provides the optimizer gateway.  Programs
author logical plans via :class:`~repro.dataflow.dataset.DataSet` handles
and trigger execution with :meth:`ExecutionEnvironment.collect` or
:meth:`ExecutionEnvironment.execute`.
"""

from __future__ import annotations

import time

from repro.common.errors import InvalidPlanError
from repro.dataflow.contracts import Contract
from repro.dataflow.dataset import DataSet
from repro.dataflow.graph import (
    BulkIterationNode,
    DeltaIterationNode,
    LogicalNode,
    LogicalPlan,
)


class BulkIteration:
    """Builder for a bulk iteration ``(G, I, O, T)``; see Section 4.1."""

    def __init__(self, env, node: BulkIterationNode):
        self._env = env
        self._node = node

    @property
    def partial_solution(self) -> DataSet:
        """The dataset ``I`` — the latest partial solution inside the body."""
        return DataSet(self._env, self._node.placeholder)

    def close(self, body, termination=None, convergence_check=None) -> DataSet:
        """Close the loop: ``body`` is ``O``, the next partial solution.

        ``termination`` is a dataset inside the body; the iteration stops
        at the first superstep after which it is empty (the criterion
        ``T``).  Alternatively ``convergence_check(prev, new) -> bool``
        compares materialized partial solutions.  With neither, the
        iteration runs for exactly ``max_iterations`` supersteps (the
        ``(G, I, O, n)`` form).
        """
        term_node = termination.node if termination is not None else None
        self._node.close(body.node, term_node, convergence_check)
        return DataSet(self._env, self._node)


class DeltaIteration:
    """Builder for an incremental (workset) iteration ``(Δ, S0, W0)``."""

    def __init__(self, env, node: DeltaIterationNode):
        self._env = env
        self._node = node

    @property
    def solution_set(self) -> DataSet:
        """The state ``S``; only usable as the stateful side of a join or
        cogroup keyed on the iteration's solution key (Section 5.3)."""
        return DataSet(self._env, self._node.solution_placeholder)

    @property
    def workset(self) -> DataSet:
        """The current workset ``W``."""
        return DataSet(self._env, self._node.workset_placeholder)

    def close(self, delta, next_workset, should_replace=None,
              mode="auto") -> DataSet:
        """Close Δ: ``delta`` holds ``D`` (same schema as ``S``),
        ``next_workset`` holds ``W_{i+1}``.

        ``should_replace(new, old)`` is the CPO comparator of Section 5.1.
        ``mode`` is one of ``superstep`` (batch-incremental),
        ``microstep`` (per-element with supersteps), ``async``
        (bounded-drain rounds), or ``auto`` (microstep if eligible).
        """
        self._node.close(delta.node, next_workset.node, should_replace, mode)
        return DataSet(self._env, self._node)


class ExecutionEnvironment:
    """Entry point for authoring and running dataflow programs."""

    def __init__(self, parallelism: int = 4, optimize: bool = True,
                 cost_weights=None, config=None, backend=None):
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        self.parallelism = parallelism
        self.optimize = optimize
        self.cost_weights = cost_weights
        from repro.cluster import resolve_backend
        from repro.runtime.config import RuntimeConfig
        from repro.runtime.metrics import MetricsCollector
        #: where plans execute: ``None``/"simulated" keeps the in-process
        #: reference backend; "pool" / "multiprocess" run one forked
        #: worker per partition (see :mod:`repro.cluster`)
        self.backend = resolve_backend(backend)
        #: runtime switches; ``config.check_invariants`` (on by default
        #: under pytest) attaches the conservation-law audit layer of
        #: :mod:`repro.runtime.invariants` to this session's metrics
        self.config = config or RuntimeConfig()
        self.metrics = MetricsCollector.for_config(self.config)
        #: the session's tracer when ``config.trace`` is set; the SPMD
        #: backends additionally attach per-worker tracers and leave
        #: their timelines in ``last_worker_traces``
        self.tracer = self.metrics.tracer
        #: the session's live metric registry when ``config.telemetry``
        #: is set, else None; executors bill each job's counts into it
        #: (SPMD backends merge the workers' bills after every job), and
        #: ``_execute_plan`` adds the job and its wall time
        self.telemetry = None
        if self.config.telemetry:
            from repro.observability.telemetry import attach_telemetry
            self.telemetry = attach_telemetry(self.metrics)
        #: runtime cardinality observer (optimizer v2): after every run
        #: it derives observed per-operator cardinalities from the
        #: merged logical counters, and the next compilation in this
        #: environment prefers them over the textbook defaults
        from repro.optimizer.observer import CardinalityObserver
        self.observer = CardinalityObserver()
        self._job_seq = 0
        self.last_worker_traces = None
        self._sinks: list[LogicalNode] = []
        self.last_plan = None
        #: per-node physical overrides applied after planning:
        #: {node id: {"ship": {input: ShipStrategy}, "local": LocalStrategy,
        #:            "combiner": bool}} — used by experiments that force a
        #: specific plan (e.g. the two PageRank plans of Figure 4)
        self.plan_overrides: dict[int, dict] = {}
        #: fault tolerance (Section 4.2): snapshot iteration state every k
        #: supersteps (0 disables); see repro.runtime.recovery
        self.checkpoint_interval: int = 0
        #: callable(superstep) that may raise SimulatedFailure; tests and
        #: benchmarks inject machine failures through this hook
        self.failure_injector = None
        #: populated after a run when checkpointing was active
        self.last_checkpoint_store = None
        #: the last job's :class:`~repro.runtime.executor.IterationSummary`
        #: list, one per iteration construct it ran
        self.iteration_summaries = []
        #: out-of-core substrate (repro.storage): the session's spill
        #: directory, created lazily — eagerly before a run when
        #: ``config.memory_budget_bytes`` is set, so pool workers nest
        #: their scratch space inside it — and removed by close()
        self.storage_session = None
        self._part_store = None

    # ------------------------------------------------------------------
    # sources

    def from_iterable(self, records, name=None) -> DataSet:
        """Create a source from an in-memory record collection.

        Records must be tuples; the collection is materialized eagerly so
        the optimizer has an exact cardinality.
        """
        data = list(records)
        node = LogicalNode(Contract.SOURCE, data=data, name=name or "source")
        return DataSet(self, node)

    def generate_sequence(self, count, fn=None, name=None) -> DataSet:
        """Source of ``(i,)`` or ``fn(i)`` records for ``i`` in [0, count)."""
        if fn is None:
            fn = lambda i: (i,)
        return self.from_iterable(
            (fn(i) for i in range(count)), name=name or "sequence"
        )

    # ------------------------------------------------------------------
    # iterations

    def iterate_bulk(self, initial: DataSet, max_iterations: int,
                     name=None) -> BulkIteration:
        node = BulkIterationNode(initial.node, max_iterations,
                                 name=name or "bulk_iteration")
        return BulkIteration(self, node)

    def iterate_delta(self, initial_solution: DataSet,
                      initial_workset: DataSet, key_fields,
                      max_iterations: int, name=None) -> DeltaIteration:
        node = DeltaIterationNode(
            initial_solution.node, initial_workset.node, key_fields,
            max_iterations, name=name or "delta_iteration",
        )
        return DeltaIteration(self, node)

    # ------------------------------------------------------------------
    # execution

    def _register_sink(self, sink: LogicalNode):
        self._sinks.append(sink)

    def _compile(self, plan: LogicalPlan):
        plan.validate()
        if self.optimize:
            from repro.optimizer import optimize_plan
            exec_plan = optimize_plan(plan, self)
        else:
            from repro.optimizer.naive import naive_plan
            exec_plan = naive_plan(plan, self.parallelism)
        for node_id, override in self.plan_overrides.items():
            ann = exec_plan.annotations.get(node_id)
            if ann is None:
                continue
            ann.ship.update(override.get("ship", {}))
            if "local" in override:
                ann.local = override["local"]
            if "combiner" in override:
                ann.combiner = override["combiner"]
        # chain fusion runs last so it sees the final ship/dam/combiner
        # annotations, overrides included (an override that repartitions
        # a fused edge must break the chain)
        from repro.optimizer.chaining import plan_chains
        plan_chains(exec_plan)
        return exec_plan

    def _execute_plan(self, plan: LogicalPlan):
        if self.config.memory_budget_bytes:
            # created before the job ships, so every worker's spill
            # directory nests inside this session's tree
            self._ensure_storage_session()
        exec_plan = self._compile(plan)
        self._job_seq += 1
        # plans are compiled here, backend-agnostically; the backend only
        # decides where the compiled plan is interpreted (and leaves the
        # job's iteration summaries on this environment)
        started = time.perf_counter()
        results = self.backend.execute_plan(self, exec_plan)
        if self.telemetry is not None:
            wall_s = time.perf_counter() - started
            self.telemetry.counter("jobs").inc()
            self.telemetry.counter("job.wall_s").inc(wall_s)
            # the series keeps each job's own cost
            self.telemetry.record("job.wall_s", wall_s,
                                  labels={"job": self._job_seq})
        self.last_plan = exec_plan
        self.observer.ingest(exec_plan, self.metrics)
        if self.tracer is not None and self.config.trace_path:
            from repro.observability import write_jsonl
            write_jsonl(
                self.config.trace_path, self.trace_timelines,
                meta={"backend": self.backend.name,
                      "parallelism": self.parallelism},
            )
        return results

    def collect(self, dataset: DataSet) -> list:
        """Execute the plan rooted at ``dataset`` and return its records."""
        sink = LogicalNode(Contract.SINK, [dataset.node], name="collect")
        results = self._execute_plan(LogicalPlan([sink]))
        return results[sink.id]

    def execute(self) -> dict[str, list]:
        """Execute all registered sinks; returns {sink name: records}."""
        if not self._sinks:
            raise InvalidPlanError("no sinks registered; nothing to execute")
        results = self._execute_plan(LogicalPlan(list(self._sinks)))
        return {sink.name: results[sink.id] for sink in self._sinks}

    # ------------------------------------------------------------------
    # storage (out-of-core substrate; see repro.storage)

    def _ensure_storage_session(self):
        if self.storage_session is None or self.storage_session.closed:
            from repro.storage.session import StorageSession
            self.storage_session = StorageSession()
        return self.storage_session

    def attach_part_store(self, root=None):
        """Create (or return) this session's dataset part store.

        With ``root=None`` the store lives inside the session's spill
        directory and disappears with it; pass an explicit ``root`` to
        persist datasets across sessions (the manifest is re-validated
        against the on-disk format version on reopen).
        """
        if self._part_store is None:
            from repro.storage.partstore import PartStore
            if root is None:
                root = self._ensure_storage_session().subdir("parts")
            self._part_store = PartStore(root)
        return self._part_store

    @property
    def part_store(self):
        return self.attach_part_store()

    def register_dataset(self, name, dataset_or_records,
                         key_fields=None) -> list[str]:
        """Persist a dataset (or record collection) as named parts.

        A :class:`DataSet` argument is executed first; records are then
        partitioned exactly like a source (round-robin over the
        session's parallelism) and written to the part store, one
        stats-tracked, content-addressed part per partition.

        ``key_fields`` (an int or tuple of ints) additionally records
        each part's key range in its manifest stats row, enabling
        :meth:`from_store` to prune whole parts against a key predicate
        without reading them.
        """
        from repro.common.keys import normalize_key_fields
        from repro.runtime import channels
        if isinstance(dataset_or_records, DataSet):
            records = self.collect(dataset_or_records)
        else:
            records = list(dataset_or_records)
        partitions = channels.round_robin(records, self.parallelism)
        keys_per_partition = None
        if key_fields is not None:
            fields = normalize_key_fields(key_fields)
            extract = (
                (lambda r: r[fields[0]]) if len(fields) == 1
                else (lambda r: tuple(r[f] for f in fields))
            )
            keys_per_partition = [
                [extract(r) for r in part] for part in partitions
            ]
        return self.part_store.register(
            name, partitions, keys_per_partition=keys_per_partition
        )

    def from_store(self, name, key_range=None) -> DataSet:
        """Source a previously registered dataset from the part store.

        Every part is re-validated (header, cardinality, content hash)
        on load, so a torn write surfaces here as a loud
        ``StorageFormatError`` rather than as wrong answers downstream.

        ``key_range=(lo, hi)`` declares an inclusive key predicate over
        the key recorded at :meth:`register_dataset` time; parts whose
        manifest key range falls entirely outside it (and empty parts)
        are pruned without touching their files — the datamgr-style
        manifest pruning of the optimizer-v2 stats loop.  Either bound
        may be ``None`` for a half-open predicate.  Parts registered
        without key stats are conservatively kept; records inside kept
        parts are *not* filtered (apply the real filter downstream).
        The resulting source carries the exact post-pruning cardinality
        from the stats rows, so the optimizer plans with it.
        """
        store = self.part_store
        part_ids = store.dataset_part_ids(name)
        if key_range is not None:
            part_ids = store.prune_parts(part_ids, key_range)
        parts = [store.load_part(pid) for pid in part_ids]
        return self.from_iterable(
            [record for part in parts for record in part], name=name
        )

    # ------------------------------------------------------------------
    # teardown

    def close(self):
        """Release session resources: spill directory, backend workers.

        Idempotent.  The spill directory is also registered for an
        ``atexit`` sweep, so even an unclosed environment cannot leak
        scratch files past process exit.
        """
        if self.storage_session is not None:
            self.storage_session.close()
        self._part_store = None
        closer = getattr(self.backend, "close", None)
        if closer is not None:
            closer()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # ------------------------------------------------------------------
    # introspection

    @property
    def trace_timelines(self):
        """Labelled ``(name, tracer)`` timelines of the last traced run.

        The simulated backend has one driver timeline; the SPMD
        backends export each worker's own timeline (the driver's merged
        tree would duplicate every worker span).
        """
        if self.tracer is None:
            return []
        if self.last_worker_traces:
            return [
                (f"worker-{t.rank}", t) for t in self.last_worker_traces
            ]
        return [("driver", self.tracer)]

    def telemetry_text(self) -> str:
        """Prometheus-format snapshot of the session's live registry."""
        if self.telemetry is None:
            raise RuntimeError(
                "telemetry is not enabled: pass "
                "RuntimeConfig(telemetry=True) or set REPRO_TELEMETRY=1"
            )
        from repro.observability.telemetry import prometheus_text
        return prometheus_text(self.telemetry)

    def write_telemetry_series(self, path: str) -> str:
        """Write the session's metric time series as JSONL; returns path."""
        if self.telemetry is None:
            raise RuntimeError(
                "telemetry is not enabled: pass "
                "RuntimeConfig(telemetry=True) or set REPRO_TELEMETRY=1"
            )
        from repro.observability.telemetry import write_series_jsonl
        return write_series_jsonl(
            path, self.telemetry,
            meta={"backend": self.backend.name,
                  "parallelism": self.parallelism},
        )

    def explain(self, dataset: DataSet) -> str:
        """Return the optimizer's chosen physical plan as text, not running it."""
        sink = LogicalNode(Contract.SINK, [dataset.node], name="explain")
        exec_plan = self._compile(LogicalPlan([sink]))
        return exec_plan.describe()

"""Pluggable execution backends: the simulator and real worker processes.

An :class:`ExecutionBackend` decides *where* a compiled plan (or a
driver program) runs; the plans themselves are backend-agnostic.  There
are two implementations:

* :class:`SimulatedBackend` — the reference: the executor interprets
  all partitions inside the calling process.
* :class:`~repro.cluster.pool.PoolBackend` (in its own module) — a real
  shared-nothing engine in miniature: one forked worker process per
  partition, records crossing partitions as frames over a
  :class:`~repro.cluster.fabric.Fabric`, supersteps synchronized by
  collective barriers, jobs crossing by value through the
  closure-capable :mod:`~repro.cluster.codec`.  Backend ``"pool"`` keeps
  its workers across jobs; backend ``"multiprocess"``
  (:class:`~repro.cluster.pool.MultiprocessBackend`) is the same pool
  forked for one job and closed after it.

Every backend runs the *same* executor code — a worker simply sees
localized datasets (its slot populated, peers' slots empty) and a
:class:`~repro.cluster.context.WorkerCluster` whose collectives reach
its peers.  Per-worker metric collectors are merged superstep-aligned
into the parent's collector, so the merged counters are comparable —
and, by construction, identical — to a simulated run.
"""

from __future__ import annotations

from repro.cluster.context import LOCAL


class WorkerCrash(RuntimeError):
    """A worker process died or raised; carries the remote traceback."""


class ExecutionBackend:
    """Interface: run a compiled plan, or a replicated driver program."""

    name = "abstract"
    #: per-worker trace timelines of the last ``run_program`` call, when
    #: the program's collectors carried tracers (SPMD backends only)
    last_worker_traces = None

    def execute_plan(self, env, exec_plan):
        """Run ``exec_plan`` for ``env``; returns {sink id: records}.

        Implementations must leave ``env.metrics`` holding the run's
        merged counters and ``env.iteration_summaries`` the job's
        iteration summaries; no executor outlives the call.
        """
        raise NotImplementedError

    def run_program(self, program, parallelism: int):
        """Run ``program(cluster) -> (result, metrics)``.

        Driver-style engines (the Spark-like and Pregel baselines) are
        replicated SPMD-style: every worker executes the same
        deterministic driver, coordinating through the cluster's
        collectives.  Returns the coordinator's ``(result, merged
        metrics)``.
        """
        raise NotImplementedError


class SimulatedBackend(ExecutionBackend):
    """The in-process reference backend."""

    name = "simulated"

    def execute_plan(self, env, exec_plan):
        from repro.runtime.executor import Executor
        executor = Executor(env)
        results = executor.run(exec_plan)
        env.iteration_summaries = executor.iteration_summaries
        if executor.checkpoint_store is not None:
            env.last_checkpoint_store = executor.checkpoint_store
        return results

    def run_program(self, program, parallelism):
        return program(LOCAL)


def absorb_plan_payloads(env, payloads):
    """Fold per-worker ``execute_plan`` payloads into the parent's env.

    Merges worker collectors superstep-aligned into ``env.metrics``,
    surfaces iteration summaries and checkpoint stores, and rebuilds
    each sink's record list.
    """
    merged, timelines = _merge_worker_metrics(payloads)
    env.last_worker_traces = timelines
    env.metrics.merge(merged, align_supersteps=False)
    env.metrics.verify_invariants()
    if env.telemetry is not None:
        # rank order: snapshot merging is deterministic regardless, but
        # the series keeps a stable arrival order this way
        for payload in payloads:
            env.telemetry.merge_snapshot(payload["telemetry"])
    env.iteration_summaries = payloads[0]["summaries"]
    if payloads[0]["checkpoint_store"] is not None:
        env.last_checkpoint_store = payloads[0]["checkpoint_store"]
    # sinks may be gathered (all records on rank 0) or forwarded
    # (still partitioned); concatenating by rank covers both and
    # reproduces the simulator's partition-scan merge order
    results: dict[int, list] = {}
    for sink_id in payloads[0]["results"]:
        records: list = []
        for payload in payloads:
            records.extend(payload["results"][sink_id])
        results[sink_id] = records
    return results


def _merge_worker_metrics(payloads):
    """Superstep-aligned merge of all workers' collectors into one.

    Returns ``(merged collector, per-worker trace timelines)``; the
    timelines are snapshotted *before* the aligned merge folds every
    worker's span tree into worker 0's, so each worker's own timeline
    survives for the exporters.
    """
    merged = payloads[0]["metrics"]
    if merged is None:  # a program that collects no metrics
        return None, None
    timelines = None
    if merged.tracer is not None:
        timelines = [p["metrics"].tracer.snapshot() for p in payloads]
    for payload in payloads[1:]:
        merged.merge(payload["metrics"], align_supersteps=True)
    return merged, timelines


def reap_workers(workers, incomplete: bool = True,
                 join_timeout: float = 5.0) -> None:
    """Terminate and join worker processes, escalating to ``kill``.

    ``join(timeout)`` alone can time out silently — a worker stuck in an
    unkillable syscall or a queue feeder thread would leak as a zombie
    across bench runs.  Any worker still alive after the join window is
    killed (SIGKILL) and joined again.
    """
    for worker in workers:
        if worker.is_alive() and incomplete:
            worker.terminate()
    for worker in workers:
        worker.join(timeout=join_timeout)
        if worker.is_alive():
            worker.kill()
            worker.join(timeout=join_timeout)


#: registry for the ``Environment(backend=...)`` / CLI string spellings;
#: :mod:`repro.cluster.pool` registers ``"pool"`` and ``"multiprocess"``
#: on import
BACKENDS = {"simulated": SimulatedBackend}


def resolve_backend(spec) -> ExecutionBackend:
    """``None`` → simulator; a name → registry lookup; an instance → itself."""
    if spec is None:
        return SimulatedBackend()
    if isinstance(spec, str):
        if spec not in BACKENDS:
            # the SPMD backends live in their own module (it imports
            # this one); pull it in so their registration is visible
            import repro.cluster.pool  # noqa: F401
        try:
            return BACKENDS[spec]()
        except KeyError:
            raise ValueError(
                f"unknown backend {spec!r}; available: "
                f"{', '.join(sorted(BACKENDS))}"
            ) from None
    return spec

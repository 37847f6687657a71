"""The traced pass: where one workload's job time goes, layer by layer.

Everything here is measured from outside the engine: by timing the
public entry points on the instances the benchmark owns, by reading
the public counters in ``env.metrics`` before and after a job, and by
rolling up the spans of the engine's existing public tracer with
``observability.profile.operator_profile``.  End-to-end numbers never
come from this pass.
"""

from __future__ import annotations

import statistics
import time

from repro.observability import operator_profile

from benchmarks.perf.session import Session, cpu_seconds

UNTRACED_JOBS = 2
TRACED_JOBS = 2

#: tracer span category -> the layer metric its self time is charged to
CATEGORY_METRIC = {
    "operator": "runtime.drivers.self_s",
    "chain": "runtime.fusion.self_s",
    "channel": "runtime.channels.self_s",
    "superstep": "runtime.executor.self_s",
    "iteration": "runtime.executor.self_s",
    "optimizer": "optimizer.self_s",
    "storage": "storage.self_s",
}

#: layer metric -> the ``env.metrics`` counter whose per-job delta it is
COUNTERS = {
    "runtime.records_processed": "total_processed",
    "channels.records_shipped_remote": "records_shipped_remote",
    "channels.bytes_shipped": "bytes_shipped",
    "channels.batches_shipped": "batches_shipped",
    "fabric.bytes_zero_copied": "bytes_zero_copied",
    "solution_set.accesses": "solution_accesses",
    "solution_set.updates": "solution_updates",
    "iterations.supersteps": "supersteps",
    "executor.cache_hits": "cache_hits",
    "optimizer.plan_switches": "plan_switches",
    "storage.records_spilled": "records_spilled",
    "storage.bytes_spilled": "bytes_spilled",
}


class _Timed:
    """Wraps a bound method, accumulating the time spent inside it."""

    def __init__(self, method):
        self.method = method
        self.seconds = 0.0

    def __call__(self, *args, **kwargs):
        started = time.perf_counter()
        try:
            return self.method(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - started


def _percentile(values, share):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def outside_spans(session, expected) -> dict:
    """Untraced jobs with the public entry points timed from outside."""
    env = session.env
    collect = env.collect = _Timed(env.collect)
    execute = env.backend.execute_plan = _Timed(env.backend.execute_plan)
    samples = {name: [] for name in (
        "job_wall_s", "dataflow.author_s", "optimizer.compile_s",
        "cluster.execute_s", "job.verify_s", "job.cpu_s",
    )}
    counts = {}
    superstep_ms = []
    for _ in range(UNTRACED_JOBS):
        before = {name: getattr(env.metrics, attr)
                  for name, attr in COUNTERS.items()}
        logged = len(env.metrics.iteration_log)
        collect.seconds = execute.seconds = 0.0
        cpu_before = cpu_seconds(session.pids)
        wall, result = session.run_job()
        samples["job.cpu_s"].append(cpu_seconds(session.pids) - cpu_before)
        samples["job_wall_s"].append(wall)
        samples["dataflow.author_s"].append(wall - collect.seconds)
        samples["optimizer.compile_s"].append(
            collect.seconds - execute.seconds
        )
        samples["cluster.execute_s"].append(execute.seconds)
        started = time.perf_counter()
        session.verify(result, expected)
        samples["job.verify_s"].append(time.perf_counter() - started)
        counts = {name: getattr(env.metrics, attr) - before[name]
                  for name, attr in COUNTERS.items()}
        superstep_ms.extend(
            step.duration_s * 1e3
            for step in env.metrics.iteration_log[logged:]
        )
    out = {name: statistics.median(values)
           for name, values in samples.items()}
    out["job.cpu_per_wall"] = out["job.cpu_s"] / out["job_wall_s"]
    if superstep_ms:  # a job without an iteration has none to report
        out["iterations.superstep_ms_p50"] = _percentile(superstep_ms, 0.50)
        out["iterations.superstep_ms_p95"] = _percentile(superstep_ms, 0.95)
    out.update(counts)
    return out


class _Roots:
    """The part of a tracer that ``operator_profile`` reads."""

    def __init__(self, roots):
        self.roots = roots


def self_seconds(roots) -> dict:
    """Self time of a span forest, summed per layer metric."""
    out = dict.fromkeys(CATEGORY_METRIC.values(), 0.0)
    for row in operator_profile(_Roots(roots))["rows"]:
        metric = CATEGORY_METRIC.get(row["category"])
        if metric is not None:
            out[metric] += row["self_s"]
    return out


def traced_jobs(workload, inputs, expected, tally, untraced_wall_s):
    """Jobs under the engine's tracer, rolled up by span category.

    Returns ``(metrics, ranks)``: the layer metrics averaged over jobs
    and over worker timelines, and the same split per rank (on two
    workers the slower rank sets each superstep's time, so a gain shows
    end to end only if it lands on that rank).
    """
    session = Session(workload, inputs, tally, trace=True)
    try:
        env = session.env
        session.verify(session.run_job()[1], expected)  # warm-up
        walls = []
        per_job = []
        per_rank = []
        for _ in range(TRACED_JOBS):
            # the session tracer keeps earlier jobs' roots
            seen = len(env.tracer.roots)
            wall, result = session.run_job()
            session.verify(result, expected)
            walls.append(wall)
            driver = self_seconds(env.tracer.roots[seen:])
            # pool workers trace each job afresh; the simulator's only
            # timeline is the driver's
            ranks = (
                [self_seconds(t.roots) for t in env.last_worker_traces]
                if env.last_worker_traces else [driver]
            )
            job = {
                metric: statistics.fmean(rank[metric] for rank in ranks)
                for metric in driver
            }
            # plans are compiled in the driver, on every backend
            job["optimizer.self_s"] = driver["optimizer.self_s"]
            per_job.append(job)
            per_rank.append(ranks)
    finally:
        session.close()
    metrics = {
        metric: statistics.fmean(job[metric] for job in per_job)
        for metric in per_job[0]
    }
    metrics["trace.unattributed_frac"] = (
        1.0 - sum(metrics.values()) / statistics.fmean(walls)
    )
    metrics["observability.trace_overhead_x"] = (
        statistics.median(walls) / untraced_wall_s
    )
    ranks = [
        {metric: statistics.fmean(job[rank][metric] for job in per_rank)
         for metric in per_rank[0][rank] if metric.startswith("runtime.")}
        for rank in range(len(per_rank[0]))
    ]
    return metrics, ranks


def _warm_job_wall(workload, inputs, expected, tally, **session_options):
    """Wall time of the second job of a fresh session."""
    session = Session(workload, inputs, tally, **session_options)
    try:
        session.verify(session.run_job()[1], expected)
        wall, result = session.run_job()
        session.verify(result, expected)
        return wall
    finally:
        session.close()


def measure(session, expected):
    """Every per-workload layer metric; closes ``session``."""
    workload, inputs, tally = session.workload, session.inputs, session.tally
    try:
        metrics = outside_spans(session, expected)
    finally:
        session.close()
    job_wall_s = metrics.pop("job_wall_s")
    traced, ranks = traced_jobs(workload, inputs, expected, tally, job_wall_s)
    metrics.update(traced)
    # the two ratios the ROADMAP quotes, on the workloads that have a
    # budget / a pool to compare against
    if workload.memory_budget_bytes:
        metrics["storage.budget_slowdown_x"] = job_wall_s / _warm_job_wall(
            workload, inputs, expected, tally, budgeted=False
        )
    if workload.backend == "pool":
        metrics["cluster.pool_speedup_x"] = _warm_job_wall(
            workload, inputs, expected, tally, backend="simulated"
        ) / job_wall_s
    return metrics, ranks

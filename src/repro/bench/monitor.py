"""``python -m repro.bench monitor <workload>``: live pool status view.

Runs one trace workload on the persistent worker pool with telemetry
and heartbeats enabled, and renders a per-worker status table — rank,
pid, job, superstep, RSS, progress age, heartbeat age, health status —
refreshed from the parent-side :class:`HealthMonitor` ledger while the
job executes.  After the run it prints the final table, the jobs'
bill as the registry holds it (jobs, wall and cpu seconds, peak RSS,
bytes shipped and spilled, records spilled), and a Prometheus-text
excerpt of the live registry.

``--once`` skips the live rendering and just checks the final state —
the CI smoke mode.  The run gates (``ok=False``) unless every rank
heartbeated with a nonzero RSS and at least one rank reported reaching
superstep 1: precisely the signals a monitoring session exists to show.
"""

from __future__ import annotations

import sys
import threading
import time
import traceback
from dataclasses import dataclass, field

from repro import ExecutionEnvironment
from repro.bench.reporting import render_table
from repro.bench.trace import WORKLOADS
from repro.graphs import erdos_renyi
from repro.observability.telemetry import prometheus_text
from repro.runtime.config import RuntimeConfig

#: registry names worth echoing in the post-run Prometheus excerpt
EXCERPT_METRICS = frozenset({
    "repro_executor_superstep",
    "repro_executor_memo_nodes",
    "repro_worker_rss_bytes",
    "repro_worker_peak_rss_bytes",
    "repro_job_cpu_s",
    "repro_fabric_frames_sent",
    "repro_bytes_shipped",
    "repro_bytes_spilled",
})


def _excerpt(text: str) -> str:
    keep = []
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            name = line.split()[2]
        else:
            name = line.split("{", 1)[0].split(" ", 1)[0]
        if name in EXCERPT_METRICS:
            keep.append(line)
    return "\n".join(keep)


def _fmt_age(value) -> str:
    return "-" if value is None else f"{value:.2f}s"


def _fmt_mb(value) -> str:
    if not value:
        return "-"
    return f"{value / (1024 * 1024):.1f} MB"


def _status_table(rows, title: str) -> str:
    table_rows = [
        [row["rank"],
         row["pid"] if row["pid"] is not None else "-",
         row["job"] if row["job"] is not None else "-",
         row["superstep"] if row["superstep"] is not None else "-",
         _fmt_mb(row["rss_bytes"]),
         _fmt_age(row["progress_age_s"]),
         _fmt_age(row["beat_age_s"]),
         row["status"]]
        for row in rows
    ]
    return render_table(
        title,
        ["rank", "pid", "job", "superstep", "rss", "progress age",
         "beat age", "status"],
        table_rows,
    )


@dataclass
class MonitorResult:
    workload: str
    parallelism: int
    interval_s: float
    wall_s: float = 0.0
    supersteps: int = 0
    frames: int = 0
    rows: list[dict] = field(default_factory=list)
    peak_supersteps: dict = field(default_factory=dict)
    warnings_seen: list[str] = field(default_factory=list)
    resource_totals: dict | None = None
    prometheus_excerpt: str = ""
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def report(self) -> str:
        blocks = [_status_table(
            self.rows,
            f"Worker health — {self.workload} on pool "
            f"(parallelism={self.parallelism}, heartbeat every "
            f"{self.interval_s:.2f}s, {self.supersteps} supersteps, "
            f"{self.wall_s:.2f}s wall)",
        )]
        if self.warnings_seen:
            blocks.append("health findings during the run:\n" + "\n".join(
                f"  {w}" for w in self.warnings_seen
            ))
        if self.resource_totals:
            totals = self.resource_totals
            blocks.append(
                f"resources: {totals['jobs']} job(s), "
                f"wall {totals['wall_s']:.2f}s, "
                f"cpu {totals['cpu_s']:.2f}s, "
                f"peak rss {_fmt_mb(totals['peak_rss_bytes'])}, "
                f"{totals['bytes_shipped']} B shipped, "
                f"{totals['bytes_spilled']} B spilled, "
                f"{totals['records_spilled']} records spilled"
            )
        if self.prometheus_excerpt:
            blocks.append("registry excerpt:\n" + "\n".join(
                f"  {line}" for line in self.prometheus_excerpt.splitlines()
            ))
        blocks.append(
            "OK: every rank heartbeated with live RSS and the gang "
            "made superstep progress."
            if self.ok else
            "FAIL:\n  - " + "\n  - ".join(self.failures)
        )
        return "\n\n".join(blocks)


def _bill(registry) -> dict | None:
    """Every job's bill so far, read from the registry (None before a
    job ends): cpu seconds and counters summed over ranks, peak RSS the
    max over processes."""
    if not registry.total("jobs"):
        return None
    return {
        "jobs": registry.total("jobs"),
        "wall_s": registry.total("job.wall_s"),
        "cpu_s": registry.total("job.cpu_s"),
        "peak_rss_bytes": registry.value("worker.peak_rss_bytes"),
        "bytes_shipped": registry.total("bytes_shipped"),
        "bytes_spilled": registry.total("bytes_spilled"),
        "records_spilled": registry.total("records_spilled"),
    }


def _note_rows(result: MonitorResult, rows) -> None:
    """Fold one snapshot into the peak-superstep and warning ledgers."""
    for row in rows:
        step = row["superstep"]
        if step is not None:
            previous = result.peak_supersteps.get(row["rank"], -1)
            result.peak_supersteps[row["rank"]] = max(previous, step)
        if row["status"] not in ("ok", "idle", "no heartbeat yet"):
            note = f"rank {row['rank']}: {row['status']}"
            if note not in result.warnings_seen:
                result.warnings_seen.append(note)


def run(workload: str = "connected_components", parallelism: int = 4,
        num_vertices: int = 4_000, avg_degree: float = 4.0, seed: int = 7,
        interval_s: float = 0.1, once: bool = False,
        refresh_s: float = 0.5, stream=None) -> MonitorResult:
    """Run ``workload`` on the pool and monitor it live.

    ``once`` suppresses the live frames and only evaluates the final
    state (the smoke/CI mode); otherwise the status table re-renders
    every ``refresh_s`` while the job runs, clearing the screen between
    frames when ``stream`` is a terminal.
    """
    if workload not in WORKLOADS:
        raise ValueError(
            f"unknown monitor workload {workload!r}; available: "
            f"{', '.join(sorted(WORKLOADS))}"
        )
    from repro.cluster.pool import PoolBackend

    stream = sys.stdout if stream is None else stream
    runner = WORKLOADS[workload]
    graph = erdos_renyi(num_vertices, avg_degree, seed=seed)
    result = MonitorResult(
        workload=workload, parallelism=parallelism, interval_s=interval_s,
    )

    backend = PoolBackend()
    env = ExecutionEnvironment(
        parallelism, backend=backend,
        config=RuntimeConfig(
            telemetry=True, heartbeat_interval_s=interval_s,
        ),
    )
    outcome: dict = {}

    def job():
        try:
            outcome["result"] = runner(env, graph)
        except BaseException:
            outcome["error"] = traceback.format_exc()

    worker = threading.Thread(target=job, name="repro-monitor-job")
    started = time.perf_counter()
    worker.start()
    try:
        while worker.is_alive():
            worker.join(timeout=refresh_s)
            pool = backend.pool
            if pool is None:
                continue
            rows = pool.monitor.snapshot()
            _note_rows(result, rows)
            if once:
                continue
            elapsed = time.perf_counter() - started
            frame = _status_table(
                rows,
                f"{workload} on pool — live, {elapsed:.1f}s elapsed "
                f"(frame {result.frames + 1})",
            )
            if stream.isatty():
                stream.write("\x1b[2J\x1b[H")
            stream.write(frame + "\n\n")
            stream.flush()
            result.frames += 1
        result.wall_s = time.perf_counter() - started
        pool = backend.pool
        if pool is not None:
            result.rows = pool.monitor.snapshot()
            _note_rows(result, result.rows)
        result.supersteps = env.metrics.supersteps

        if "error" in outcome:
            result.failures.append(
                f"workload raised:\n{outcome['error']}"
            )
        if pool is None:
            result.failures.append("the pool was never started")
        silent = [row["rank"] for row in result.rows
                  if row["pid"] is None]
        if silent:
            result.failures.append(
                f"rank(s) {silent} never sent a heartbeat"
            )
        rssless = [row["rank"] for row in result.rows
                   if row["pid"] is not None and not row["rss_bytes"]]
        if rssless:
            result.failures.append(
                f"rank(s) {rssless} heartbeated without an RSS sample"
            )
        front = max(result.peak_supersteps.values(), default=-1)
        if front < 1:
            result.failures.append(
                f"no rank reported reaching superstep 1 (front: {front}) "
                "— raise the workload size or lower the heartbeat "
                "interval"
            )
        result.resource_totals = _bill(env.telemetry)
        result.prometheus_excerpt = _excerpt(prometheus_text(env.telemetry))
    finally:
        backend.close()
    return result

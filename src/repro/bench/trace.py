"""``python -m repro.bench trace <workload>``: traced runs + profile report.

Runs one workload with tracing and invariant checking force-enabled on
each requested backend, then:

* writes the JSONL event log and the Chrome-trace JSON
  (``chrome://tracing`` / https://ui.perfetto.dev) under
  ``benchmarks/results/traces/``;
* prints a per-phase profile — self time, share of wall time, records
  processed and throughput, remote shipments, wire bytes, cache
  behavior — computed from the merged span tree;
* asserts that all backends produced *structurally identical* span
  trees: same names, same nesting, same logical counter deltas
  (timestamps and physical quantities excluded) — the trace-level
  analogue of the differential audit's counter equality.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro import ExecutionEnvironment
from repro.algorithms import connected_components as cc
from repro.algorithms import pagerank as pr
from repro.bench.reporting import (
    format_seconds,
    render_table,
    traces_dir,
)
from repro.common.errors import InvariantViolation
from repro.graphs import erdos_renyi
from repro.observability import (
    LOGICAL_SPAN_COUNTERS,
    operator_profile,
    write_chrome_trace,
    write_jsonl,
)
from repro.runtime.config import RuntimeConfig


def _cc(variant, mode):
    def runner(env, graph):
        return cc.cc_incremental(env, graph, variant=variant, mode=mode)
    return runner


#: workload name -> runner(env, graph) -> result
WORKLOADS = {
    "connected_components": _cc("cogroup", "superstep"),
    "cc_superstep_match": _cc("match", "superstep"),
    "cc_microstep": _cc("match", "microstep"),
    "cc_async": _cc("match", "async"),
    "cc_bulk": lambda env, graph: cc.cc_bulk(env, graph, 10_000),
    "pagerank": lambda env, graph: pr.pagerank_bulk(env, graph, 8),
}


@dataclass
class TraceRun:
    """One traced (workload, backend) execution and its artifacts."""

    backend: str
    wall_s: float
    spans: int
    supersteps: int
    structure: tuple
    profile: dict
    result: object
    jsonl_path: str | None = None
    chrome_path: str | None = None
    #: fabric transport totals from the run's telemetry registry
    #: (zero on the simulated backend — nothing crosses processes)
    frames_shm: int = 0
    frames_inline: int = 0
    inline_fallbacks: int = 0


@dataclass
class TraceResult:
    workload: str
    runs: list[TraceRun] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def raise_on_failure(self):
        if self.failures:
            raise InvariantViolation(
                f"trace comparison failed for {self.workload}:\n  "
                + "\n  ".join(self.failures)
            )
        return self

    def report(self) -> str:
        blocks = []
        for run in self.runs:
            rows = [
                [
                    row["name"],
                    row["count"],
                    format_seconds(row["self_s"]),
                    f"{row['share']:.1%}",
                    row["processed"],
                    f"{row['records_per_s']:,.0f}",
                    row["shipped_remote"],
                    row["bytes_shipped"],
                    f"{row['cache_hits']}/{row['cache_builds']}",
                    row["records_spilled"],
                    row["bytes_spilled"],
                ]
                for row in run.profile["rows"][:12]
            ]
            blocks.append(render_table(
                f"Trace profile — {self.workload} on {run.backend} "
                f"({run.spans} spans, {run.supersteps} supersteps, "
                f"{format_seconds(run.wall_s)})",
                ["phase", "count", "self", "share", "processed", "rec/s",
                 "remote", "bytes", "cache h/b", "spilled", "spill B"],
                rows,
            ))
            blocks.append(
                f"fabric: {run.frames_shm} shm frames, "
                f"{run.frames_inline} inline, "
                f"{run.inline_fallbacks} inline fallbacks"
            )
            artifacts = [p for p in (run.jsonl_path, run.chrome_path) if p]
            if artifacts:
                blocks.append("artifacts:\n" + "\n".join(
                    f"  {path}" for path in artifacts
                ))
        if self.ok:
            backends = ", ".join(run.backend for run in self.runs)
            blocks.append(
                f"Span trees of [{backends}] are structurally identical: "
                "same names, nesting, and logical counter deltas."
            )
        else:
            blocks.append("FAILURES:\n" + "\n".join(
                f"  {f}" for f in self.failures
            ))
        return "\n\n".join(blocks)


def _comparable_result(result):
    """Order-insensitive projection of a workload result."""
    if isinstance(result, dict):
        return sorted(result.items())
    return result


def run(workload: str = "connected_components",
        backends=("simulated", "pool"), seed: int = 7,
        num_vertices: int = 120, avg_degree: float = 2.5,
        parallelism: int = 4, save: bool = True) -> TraceResult:
    """Trace ``workload`` on every backend; compare the span trees.

    ``save`` writes the JSONL event log and the Chrome-trace JSON under
    ``benchmarks/results/traces/`` (the acceptance artifacts); the text
    report is returned either way.
    """
    if workload not in WORKLOADS:
        raise ValueError(
            f"unknown trace workload {workload!r}; available: "
            f"{', '.join(sorted(WORKLOADS))}"
        )
    runner = WORKLOADS[workload]
    graph = erdos_renyi(num_vertices, avg_degree, seed=seed)
    out = TraceResult(workload=workload)
    baseline = None
    for backend in backends:
        # telemetry rides along: the registry feeds the shm-ring report
        # line and the Chrome trace's counter tracks, and adds no spans,
        # so the cross-backend structure comparison is unaffected
        env = ExecutionEnvironment(
            parallelism, backend=backend,
            config=RuntimeConfig(
                check_invariants=True, trace=True, telemetry=True,
            ),
        )
        started = time.perf_counter()
        result = runner(env, graph)
        wall_s = time.perf_counter() - started
        # closes the loop: totals attribution + the trace law (span
        # forest closed, superstep spans reconcile with iteration_log)
        env.metrics.verify_invariants()
        structure = env.tracer.structure(LOGICAL_SPAN_COUNTERS)
        jsonl_path = chrome_path = None
        if save:
            stem = os.path.join(
                traces_dir(), f"TRACE_{workload}.{env.backend.name}"
            )
            meta = {
                "workload": workload,
                "backend": env.backend.name,
                "seed": seed,
                "num_vertices": num_vertices,
                "parallelism": parallelism,
            }
            jsonl_path = write_jsonl(
                stem + ".jsonl", env.trace_timelines, meta=meta
            )
            chrome_path = write_chrome_trace(
                stem + ".chrome.json", env.trace_timelines,
                series=env.telemetry.series,
            )
        run_record = TraceRun(
            backend=env.backend.name,
            wall_s=wall_s,
            spans=sum(1 for _ in env.tracer.iter_spans()),
            supersteps=env.metrics.supersteps,
            structure=structure,
            profile=operator_profile(env.tracer),
            result=_comparable_result(result),
            jsonl_path=jsonl_path,
            chrome_path=chrome_path,
            frames_shm=int(env.telemetry.total("fabric.frames_shm")),
            frames_inline=int(env.telemetry.total("fabric.frames_inline")),
            inline_fallbacks=int(
                env.telemetry.total("fabric.inline_fallbacks")
            ),
        )
        out.runs.append(run_record)
        if baseline is None:
            baseline = run_record
            continue
        if run_record.result != baseline.result:
            out.failures.append(
                f"results differ between the {run_record.backend} and "
                f"{baseline.backend} backends"
            )
        if run_record.structure != baseline.structure:
            out.failures.append(
                f"span trees differ between the {run_record.backend} and "
                f"{baseline.backend} backends (names, nesting, or logical "
                "counter deltas)"
            )
    return out

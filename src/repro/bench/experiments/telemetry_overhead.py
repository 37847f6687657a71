"""Telemetry overhead gate: REPRO_TELEMETRY=1 must stay near-free.

Telemetry is opt-in precisely because observability must never tax the
default path; this benchmark bounds the tax on the *opt-in* path too.
It reruns two fused workloads from :mod:`repro.bench.workloads` — the
5-operator map/filter pipeline and connected components as a delta
iteration — once with
``RuntimeConfig(telemetry=True)`` and once without, back to back in
each round, and takes the median of the per-round CPU-time ratios
(see :func:`_measure` for why pairing and CPU time are what make a 5%
bound measurable at all):

* **pipeline** (gating) — a forward job with no iteration.  Telemetry
  instruments superstep boundaries and spill/fabric events, none of
  which fire here, so any measured slowdown is pure attachment cost;
  the gate fails if the ratio exceeds ``OVERHEAD_CEILING`` (5%).
* **cc delta iteration** (reporting) — every superstep pays the live
  hooks: a duration-histogram observation, an RSS read, and the
  registry's residency/spill probes.  Reported so a hook regression is
  visible, but not gated — fewer rounds fit the time budget, so its
  estimate is coarser.

Both modes must collect identical results: telemetry that changes
answers is a bug regardless of speed.  The JSON artifact lands in
``benchmarks/results/BENCH_telemetry_overhead.json``.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field

from repro.bench.reporting import (
    bench_meta,
    format_quantity,
    render_table,
    write_artifact,
)
from repro.bench.workloads import cc_chained, map_filter_pipeline
from repro.graphs.generators import erdos_renyi
from repro.runtime.config import RuntimeConfig

ARTIFACT = "BENCH_telemetry_overhead.json"

#: gating rows fail if telemetry-on wall clock exceeds this multiple of
#: the telemetry-off median
OVERHEAD_CEILING = 1.05


@dataclass
class TelemetryOverheadResult:
    records: int
    cc_vertices: int
    cc_edges: int
    parallelism: int
    rounds: int
    rows: list[dict] = field(default_factory=list)
    ok: bool = True
    artifact_path: str = ""

    def report(self) -> str:
        table_rows = [
            [row["workload"],
             format_quantity(row["records"]),
             f"{row['off_s'] * 1000:.0f} ms",
             f"{row['on_s'] * 1000:.0f} ms",
             f"{row['ratio']:.3f}x",
             ("yes" if row["ratio"] <= OVERHEAD_CEILING else "NO")
             if row["gating"] else "-"]
            for row in self.rows
        ]
        table = render_table(
            f"Telemetry overhead — REPRO_TELEMETRY=1 vs off "
            f"(parallelism={self.parallelism}, median of {self.rounds})",
            ["workload", "records", "off cpu", "on cpu",
             "ratio", f"<={OVERHEAD_CEILING:.2f}x"],
            table_rows,
        )
        verdict = (
            "OK: telemetry stays within the "
            f"{(OVERHEAD_CEILING - 1) * 100:.0f}% overhead ceiling."
            if self.ok else
            "FAIL: telemetry slowed the gating workload beyond "
            f"{(OVERHEAD_CEILING - 1) * 100:.0f}% (or modes disagreed)."
        )
        return table + "\n\n" + verdict + f"\nArtifact: {self.artifact_path}"


def _environment(parallelism: int, telemetry: bool):
    from repro.dataflow.environment import ExecutionEnvironment
    return ExecutionEnvironment(
        parallelism=parallelism,
        config=RuntimeConfig(
            check_invariants=False, trace=False, telemetry=telemetry,
        ),
    )


def _run_pipeline(records: int, parallelism: int, telemetry: bool):
    env = _environment(parallelism, telemetry)
    out = map_filter_pipeline(env, records)
    gc.collect()
    started = time.process_time()
    result = env.collect(out)
    return time.process_time() - started, result


def _run_cc(graph, parallelism: int, telemetry: bool):
    env = _environment(parallelism, telemetry)
    out = cc_chained(env, graph)
    gc.collect()
    started = time.process_time()
    result = sorted(env.collect(out))
    return time.process_time() - started, result


def _measure(bench, rounds: int):
    """Median of paired on/off CPU-time ratios plus a result check.

    A 5% bound is far below this host's run-to-run wall-clock noise
    (allocator and cache state drift across rounds), so two defenses:
    CPU time instead of wall clock (the simulated backend runs
    in-process, so ``process_time`` captures all the work while
    ignoring scheduler preemption), and *paired* ratios — each round
    runs both modes back to back (order alternating) and contributes
    one on/off ratio, so the slow drift that dominates the variance
    cancels within each pair.  The median over rounds is the estimate.
    """
    bench(True)  # warm both modes before timing
    bench(False)
    ratios, on_times, off_times = [], [], []
    on_result = off_result = None
    for index in range(rounds):
        if index % 2 == 0:
            on_s, on_result = bench(True)
            off_s, off_result = bench(False)
        else:
            off_s, off_result = bench(False)
            on_s, on_result = bench(True)
        on_times.append(on_s)
        off_times.append(off_s)
        ratios.append(on_s / off_s if off_s > 0 else float("inf"))
    return (
        statistics.median(on_times),
        statistics.median(off_times),
        statistics.median(ratios),
        sorted(on_result) == sorted(off_result),
    )


def run(records: int = 500_000, cc_vertices: int = 10_000,
        cc_avg_degree: float = 4.0, parallelism: int = 4, rounds: int = 12,
        save_artifact: bool = True) -> TelemetryOverheadResult:
    graph = erdos_renyi(cc_vertices, cc_avg_degree, seed=17,
                        name="telemetry_overhead")
    result = TelemetryOverheadResult(
        records=records,
        cc_vertices=graph.num_vertices,
        cc_edges=graph.num_edges,
        parallelism=parallelism,
        rounds=rounds,
    )

    cases = [
        ("pipeline (5-op map/filter)", True, records, rounds,
         lambda on: _run_pipeline(records, parallelism, on)),
        ("cc delta iteration", False,
         graph.num_vertices + graph.num_edges, max(3, rounds // 2),
         lambda on: _run_cc(graph, parallelism, on)),
    ]
    for name, gating, size, case_rounds, bench in cases:
        on_s, off_s, ratio, agree = _measure(bench, case_rounds)
        result.rows.append({
            "workload": name,
            "gating": gating,
            "records": size,
            "on_s": on_s,
            "off_s": off_s,
            "ratio": ratio,
            "results_agree": agree,
        })
        if not agree:
            result.ok = False
        if gating and ratio > OVERHEAD_CEILING:
            result.ok = False

    if save_artifact:
        payload = {
            "experiment": "telemetry_overhead",
            "meta": bench_meta(
                backend="simulated",
                parallelism=parallelism,
                rounds=rounds,
                telemetry="on-vs-off",
            ),
            "records": records,
            "cc_vertices": result.cc_vertices,
            "cc_edges": result.cc_edges,
            "parallelism": parallelism,
            "rounds": rounds,
            "overhead_ceiling": OVERHEAD_CEILING,
            "ok": result.ok,
            "note": (
                "Identical plans through the public API; only "
                "RuntimeConfig.telemetry differs.  on_s/off_s are "
                "median per-round CPU times; ratio is the median of "
                "per-round paired on/off CPU ratios (pairing cancels "
                "the allocator/cache drift that dominates wall-clock "
                "variance).  The gating (non-iterative) row must stay "
                "within the ceiling and both modes must collect "
                "identical results; the cc row reports the "
                "per-superstep hook cost without gating it."
            ),
            "rows": result.rows,
        }
        result.artifact_path = write_artifact(ARTIFACT, payload)
    return result

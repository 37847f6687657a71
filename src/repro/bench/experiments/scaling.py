"""Backend scaling: pool workers vs the simulator.

Runs bulk PageRank on the largest seeded dataset (``twitter``) at
increasing worker counts on the simulator and the worker pool, and
records wall clocks plus speedup curves relative to one worker.  At
every width every backend's result must equal the simulator's bit for
bit (the backends share partitioning, so the float-sum orders match).

The **pool** backend is measured twice: a *cold* run whose wall clock
includes forking the pool (what every ``backend="multiprocess"`` job
pays), and a *warm* run on the already-running pool — the regime the
persistent pool exists for (one pool serves many jobs).  The warm curve
is the one the monotone-speedup gate judges.

Honesty notes:

* The host's CPU count is recorded, and every row where ``workers``
  exceeds ``host_cpus`` is marked ``oversubscribed: true`` — worker
  processes time-sharing cores measure serialization + scheduling
  overhead, not parallel speedup, so monotonic scaling is physically
  impossible there.  The gate (:attr:`ScalingResult.ok`) applies the
  monotone-speedup requirement **only to non-oversubscribed rows**; a
  single-core host yields a vacuous gate, not a misleading red/green.
* Earlier revisions reported ``speedup_vs_1_worker`` from a
  ``host_cpus: 1`` machine as if it measured scaling; the flag exists
  so no reader (or CI job) repeats that mistake.

The JSON artifact lands in ``benchmarks/results/BENCH_backend_scaling.json``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro import ExecutionEnvironment
from repro.algorithms import pagerank as pr
from repro.bench.reporting import (
    bench_meta,
    format_seconds,
    render_table,
    write_artifact,
)
from repro.bench.workloads import graph

ARTIFACT = "BENCH_backend_scaling.json"

#: tolerated per-step jitter in the monotone warm-pool speedup gate:
#: each non-oversubscribed row must keep at least this fraction of the
#: previous non-oversubscribed row's speedup
MONOTONE_TOLERANCE = 0.9


@dataclass
class ScalingResult:
    dataset: str
    num_vertices: int
    num_edges: int
    iterations: int
    host_cpus: int
    rows: list[dict] = field(default_factory=list)
    artifact_path: str = ""

    @property
    def gated_rows(self) -> list[dict]:
        """The rows the monotone-speedup gate applies to."""
        return [row for row in self.rows if not row["oversubscribed"]]

    @property
    def monotone_ok(self) -> bool:
        """Warm-pool speedup non-decreasing over non-oversubscribed rows.

        Oversubscribed rows (``workers > host_cpus``) are excluded: they
        time-share cores and cannot scale.  Vacuously true when every
        multi-worker row is oversubscribed (e.g. a single-core host).
        """
        previous = None
        for row in self.gated_rows:
            speedup = row["pool_warm_speedup_vs_1_worker"]
            if previous is not None and speedup < previous * MONOTONE_TOLERANCE:
                return False
            previous = speedup
        return True

    @property
    def ok(self) -> bool:
        return (
            all(row["results_match"] for row in self.rows)
            and self.monotone_ok
        )

    def report(self) -> str:
        table_rows = [
            [row["workers"],
             format_seconds(row["simulated_s"]),
             format_seconds(row["pool_s"]),
             format_seconds(row["pool_warm_s"]),
             f"{row['pool_warm_speedup_vs_1_worker']:.2f}x",
             "yes" if row["oversubscribed"] else "no",
             "yes" if row["results_match"] else "NO"]
            for row in self.rows
        ]
        table = render_table(
            f"Backend scaling — PageRank({self.iterations} it.) on "
            f"{self.dataset} ({self.num_vertices} vertices, "
            f"{self.num_edges} edges), host_cpus={self.host_cpus}",
            ["workers", "simulated", "pool (cold)", "pool (warm)",
             "warm speedup vs 1", "oversub.", "results identical"],
            table_rows,
        )
        notes = [
            f"Artifact: {self.artifact_path}",
        ]
        oversubscribed = [r["workers"] for r in self.rows
                          if r["oversubscribed"]]
        if oversubscribed:
            notes.append(
                f"Caveat: host has {self.host_cpus} CPU(s) — rows at "
                f"{oversubscribed} workers are oversubscribed (cores "
                "time-shared), so their wall clocks measure IPC/"
                "serialization overhead, not parallel speedup; the "
                "monotone-speedup gate skips them."
            )
        gated = [r["workers"] for r in self.gated_rows]
        notes.append(
            "Monotone warm-pool speedup gate over non-oversubscribed "
            f"rows {gated}: {'ok' if self.monotone_ok else 'FAILED'}."
        )
        return table + "\n\n" + "\n".join(notes)


def _time_run(env_factory, graph_obj, iterations):
    env = env_factory()
    started = time.perf_counter()
    result = pr.pagerank_bulk(env, graph_obj, iterations, plan="partition")
    return time.perf_counter() - started, result


def run(dataset: str = "twitter", iterations: int = 4,
        worker_counts=(1, 2, 4, 8), save_artifact: bool = True
        ) -> ScalingResult:
    from repro.cluster.pool import PoolBackend

    g = graph(dataset)
    host_cpus = os.cpu_count() or 1
    result = ScalingResult(
        dataset=dataset,
        num_vertices=g.num_vertices,
        num_edges=g.num_edges,
        iterations=iterations,
        host_cpus=host_cpus,
    )

    base = {}
    for workers in worker_counts:
        simulated_s, simulated = _time_run(
            lambda: ExecutionEnvironment(workers, backend="simulated"),
            g, iterations,
        )
        # one persistent pool serves both pool measurements: the cold
        # run pays the fork, the warm run measures the steady state
        pool_backend = PoolBackend()
        try:
            pool_s, pool_cold = _time_run(
                lambda: ExecutionEnvironment(workers, backend=pool_backend),
                g, iterations,
            )
            pool_warm_s, pool_warm = _time_run(
                lambda: ExecutionEnvironment(workers, backend=pool_backend),
                g, iterations,
            )
        finally:
            pool_backend.close()
        for name, seconds in (("pool", pool_s), ("pool_warm", pool_warm_s)):
            base.setdefault(name, seconds)
        result.rows.append({
            "workers": workers,
            "simulated_s": simulated_s,
            "pool_s": pool_s,
            "pool_warm_s": pool_warm_s,
            "pool_speedup_vs_1_worker": base["pool"] / pool_s,
            "pool_warm_speedup_vs_1_worker": base["pool_warm"] / pool_warm_s,
            "oversubscribed": workers > host_cpus,
            "results_match": simulated == pool_cold == pool_warm,
        })

    if save_artifact:
        payload = {
            "experiment": "backend_scaling",
            "meta": bench_meta(
                backend="simulated+pool",
                worker_counts=list(worker_counts),
                pagerank_iterations=iterations,
            ),
            "dataset": dataset,
            "num_vertices": result.num_vertices,
            "num_edges": result.num_edges,
            "pagerank_iterations": iterations,
            "host_cpus": host_cpus,
            "monotone_ok": result.monotone_ok,
            "note": (
                "rows with oversubscribed=true have more workers than "
                "host CPUs: their wall clocks measure serialization/"
                "scheduling overhead, not parallel speedup, and the "
                "monotone-speedup gate excludes them; pool_warm_s times "
                "a job on an already-running pool (the persistent-pool "
                "steady state); results_match asserts bitwise equality "
                "across the simulated and pool backends at each width"
            ),
            "rows": result.rows,
        }
        result.artifact_path = write_artifact(ARTIFACT, payload)
    return result

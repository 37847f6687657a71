"""Optimizer-v2 microbenchmark: pushdown and adaptive re-optimization.

Two workloads, both end-to-end through the public environment API:

* **pushdown** (gates on wall-clock) — a highly selective filter
  (keeps ~1%) sitting on a large equi-join whose probe side
  identity-forwards the filtered fields.  With the read fields declared
  (``fields=(1,)``) the optimizer evaluates the predicate below the
  ship, so ~99% of the probe side pays neither network nor probe cost;
  without the declaration the same predicate runs post-join over the
  full join output.  The two programs differ only in that one line of
  metadata and must collect identical results.
* **adaptive rescue** (gates on wire bytes) — connected components over
  a bundle of long paths, *forced* onto a static broadcast-probe plan
  (the plan a stale cardinality estimate would pick).  Long paths keep
  the workset large for the whole run — exactly the trajectory where a
  broadcast probe is maximally wrong.  With ``RuntimeConfig.adaptive``
  on, the executor measures the workset at each superstep boundary and
  switches the probe edge to partition-hash at the crossover; with
  adaptivity off the broadcast plan runs to convergence.  The row runs
  on the **pool** backend and gates on the reduction in
  serialized bytes put on the wire — the paper's cost model is
  network-dominated, and that is where a ship-strategy switch pays.
  Wall-clock is reported but not gated: in this pure-Python runtime the
  switch's invisibility machinery (origin tagging, deterministic
  re-assembly) costs about what the saved hash-table misses buy back,
  so the wall-clock ratio hovers around 1x while the wire volume drops
  by ~2x.  Results must be bitwise equal and at least one
  ``plan_switch`` must fire.

The run fails (``ok=False``, nonzero exit under ``python -m repro.bench
optimizer``) if a gating metric falls below ``SPEEDUP_FLOOR``, if the
adaptive row fails to switch, or if any row's two modes disagree on the
collected results.

The JSON artifact lands in ``benchmarks/results/BENCH_optimizer.json``.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
from dataclasses import dataclass, field

from repro.bench.reporting import (
    bench_meta,
    format_quantity,
    render_table,
    results_dir,
)
from repro.runtime.config import RuntimeConfig

ARTIFACT = "BENCH_optimizer.json"

#: each row's gating metric (wall-clock speedup for pushdown, wire-byte
#: ratio for the adaptive rescue) must reach this multiple
SPEEDUP_FLOOR = 1.3


@dataclass
class OptimizerBenchResult:
    join_left: int
    join_right: int
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
             f"{row['optimized_s'] * 1000:.0f} ms",
             f"{row['baseline_s'] * 1000:.0f} ms",
             f"{row['speedup']:.2f}x",
             (f"{row['bytes_ratio']:.2f}x"
              if row["bytes_ratio"] is not None else "-"),
             "yes" if row["gate_value"] >= SPEEDUP_FLOOR else "NO"]
            for row in self.rows
        ]
        table = render_table(
            f"Optimizer v2 — rewrites on vs off "
            f"(parallelism={self.parallelism}, median of {self.rounds})",
            ["workload", "records", "v2", "baseline", "speedup",
             "bytes saved", f"gate>={SPEEDUP_FLOOR:.1f}x"],
            table_rows,
        )
        verdict = (
            "OK: pushdown clears the wall-clock floor and the adaptive "
            "switch clears the wire-byte floor with bitwise-equal results."
            if self.ok else
            "FAIL: a gating metric fell below the floor, the adaptive "
            "switch did not fire, or modes disagreed."
        )
        return table + "\n\n" + verdict + f"\nArtifact: {self.artifact_path}"


def _environment(parallelism: int, adaptive: bool = True,
                 backend: str = "simulated"):
    from repro.dataflow.environment import ExecutionEnvironment
    return ExecutionEnvironment(
        parallelism=parallelism,
        backend=backend,
        config=RuntimeConfig(
            check_invariants=False, trace=False, adaptive=adaptive,
        ),
    )


# ----------------------------------------------------------------------
# row 1: selective filter over a large join

def _pushdown_program(env, left: int, right: int, declare: bool):
    probe = env.generate_sequence(
        left, lambda i: (i % (right // 2), i & 1023), name="probe"
    )
    build = env.generate_sequence(
        right, lambda i: (i, i * 3), name="build"
    )
    joined = probe.join(
        build, 0, 0, lambda p, b: (p[0], p[1], b[1]), name="lookup"
    )
    joined.with_forwarded_fields({0: 0, 1: 1}, input_index=0)
    return joined.filter(
        lambda r: r[1] < 10,  # keeps ~1% of the 0..1023 range
        fields=(1,) if declare else None,
        name="selective",
    )


def _run_pushdown(left: int, right: int, parallelism: int, declare: bool):
    env = _environment(parallelism)
    out = _pushdown_program(env, left, right, declare)
    gc.collect()
    started = time.perf_counter()
    result = env.collect(out)
    elapsed = time.perf_counter() - started
    env.close()
    return elapsed, result, 0, 0


# ----------------------------------------------------------------------
# row 2: delta-CC forced onto a static broadcast plan

def _path_bundle(num_paths: int, length: int):
    """Disjoint bidirectional paths: the workset stays ~|V| for ~length
    supersteps (every vertex keeps learning a smaller label), the
    worst case for a broadcast probe."""
    edges = []
    for p in range(num_paths):
        base = p * length
        for i in range(length - 1):
            edges.append((base + i, base + i + 1))
            edges.append((base + i + 1, base + i))
    return num_paths * length, edges


def _cc_forced_broadcast(env, num_vertices: int, edges):
    from repro.runtime.plan import BROADCAST, FORWARD, LocalStrategy
    verts = env.from_iterable(
        ((v, v) for v in range(num_vertices)), name="vertices"
    )
    edge_ds = env.from_iterable(edges, name="edges")
    iteration = env.iterate_delta(
        verts, verts, key_fields=0, max_iterations=1_000, name="cc",
    )
    expand = iteration.workset.join(
        edge_ds, 0, 0, lambda w, e: (e[1], w[1]), name="expand"
    )
    best = expand.min_by_key(0, 1, name="minlabel")
    delta = best.cogroup(
        iteration.solution_set, 0, 0,
        lambda k, cand, cur: [
            c for c in cand if not cur or c[1] < cur[0][1]
        ],
        inner=False, name="update",
    )
    # the stale-estimate plan: replicate the workset over resident
    # edge tables every superstep
    env.plan_overrides[expand.node.id] = {
        "ship": {0: BROADCAST, 1: FORWARD},
        "local": LocalStrategy.HASH_BUILD_RIGHT,
    }
    return iteration.close(delta, delta)


def _run_cc(num_vertices: int, edges, parallelism: int, adaptive: bool):
    env = _environment(parallelism, adaptive=adaptive,
                       backend="pool")
    out = _cc_forced_broadcast(env, num_vertices, edges)
    gc.collect()
    started = time.perf_counter()
    result = sorted(env.collect(out))
    elapsed = time.perf_counter() - started
    switches = env.metrics.plan_switches
    wire_bytes = env.metrics.bytes_shipped
    env.close()
    return elapsed, result, switches, wire_bytes


def _measure(bench, rounds: int):
    """Interleaved v2/baseline medians plus a result-equality check."""
    bench(True)  # warm both modes before timing
    bench(False)
    optimized_times, baseline_times = [], []
    optimized = baseline = None
    switches = 0
    optimized_bytes = baseline_bytes = 0
    for _ in range(rounds):
        elapsed, optimized, switches, optimized_bytes = bench(True)
        optimized_times.append(elapsed)
        elapsed, baseline, _, baseline_bytes = bench(False)
        baseline_times.append(elapsed)
    return (
        statistics.median(optimized_times),
        statistics.median(baseline_times),
        sorted(optimized) == sorted(baseline),
        switches,
        optimized_bytes,
        baseline_bytes,
    )


def run(join_left: int = 600_000, join_right: int = 60_000,
        cc_paths: int = 200, cc_path_length: int = 60,
        parallelism: int = 4, rounds: int = 3,
        save_artifact: bool = True) -> OptimizerBenchResult:
    cc_vertices, cc_edges = _path_bundle(cc_paths, cc_path_length)
    result = OptimizerBenchResult(
        join_left=join_left,
        join_right=join_right,
        cc_vertices=cc_vertices,
        cc_edges=len(cc_edges),
        parallelism=parallelism,
        rounds=rounds,
    )

    cases = [
        # (name, gate on, size, bench thunk, needs a plan switch)
        ("filter pushdown (1% selective join)", "speedup",
         join_left + join_right,
         lambda on: _run_pushdown(join_left, join_right, parallelism, on),
         False),
        ("adaptive rescue (forced broadcast CC, pool)", "bytes",
         cc_vertices + len(cc_edges),
         lambda on: _run_cc(cc_vertices, cc_edges, parallelism, on),
         True),
    ]
    for name, gate_on, size, bench, needs_switch in cases:
        (optimized_s, baseline_s, agree, switches,
         optimized_bytes, baseline_bytes) = _measure(bench, rounds)
        speedup = baseline_s / optimized_s if optimized_s > 0 else float("inf")
        bytes_ratio = (
            baseline_bytes / optimized_bytes if optimized_bytes else None
        )
        gate_value = speedup if gate_on == "speedup" else (bytes_ratio or 0.0)
        result.rows.append({
            "workload": name,
            "gate_on": gate_on,
            "gate_value": gate_value,
            "records": size,
            "optimized_s": optimized_s,
            "baseline_s": baseline_s,
            "speedup": speedup,
            "bytes_ratio": bytes_ratio,
            "optimized_bytes": optimized_bytes,
            "baseline_bytes": baseline_bytes,
            "results_agree": agree,
            "plan_switches": switches,
        })
        if not agree:
            result.ok = False
        if gate_value < SPEEDUP_FLOOR:
            result.ok = False
        if needs_switch and switches < 1:
            result.ok = False

    if save_artifact:
        payload = {
            "experiment": "optimizer",
            "meta": bench_meta(
                backend="simulated+pool",
                parallelism=parallelism,
                rounds=rounds,
                adaptive="v2-vs-baseline",
            ),
            "join_left": join_left,
            "join_right": join_right,
            "cc_vertices": result.cc_vertices,
            "cc_edges": result.cc_edges,
            "parallelism": parallelism,
            "rounds": rounds,
            "speedup_floor": SPEEDUP_FLOOR,
            "ok": result.ok,
            "note": (
                "Row 1 compares the same selective-filter join with and "
                "without declared read fields (the only thing pushdown "
                "legality keys on) and gates on wall-clock.  Row 2 "
                "forces path-bundle delta-CC onto a static "
                "broadcast-probe plan on the pool backend and "
                "lets the adaptive executor rescue it mid-iteration; it "
                "gates on the serialized wire-byte reduction (the "
                "network-dominated cost the paper optimizes), reporting "
                "wall-clock alongside.  Rows report the median of "
                "interleaved rounds; both modes must collect identical "
                "results."
            ),
            "rows": result.rows,
        }
        path = os.path.join(results_dir(), ARTIFACT)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        result.artifact_path = path
    return result

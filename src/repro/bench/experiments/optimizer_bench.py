"""Optimizer-v2 microbenchmark: filter pushdown below the ship.

One workload, end-to-end through the public environment API: a highly
selective filter (keeps ~1%) sitting on a large equi-join whose probe
side identity-forwards the filtered fields.  With the read fields
declared (``fields=(1,)``) the optimizer evaluates the predicate below
the ship, so ~99% of the probe side pays neither network nor probe
cost; without the declaration the same predicate runs post-join over
the full join output.  The two programs differ only in that one line of
metadata and must collect identical results.

The run fails (``ok=False``, nonzero exit under ``python -m repro.bench
optimizer``) if the wall-clock speedup falls below ``SPEEDUP_FLOOR`` or
the two programs disagree on the collected results.

The JSON artifact lands in ``benchmarks/results/BENCH_optimizer.json``.
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
from repro.runtime.config import RuntimeConfig

ARTIFACT = "BENCH_optimizer.json"

#: the wall-clock speedup of the pushed plan must reach this multiple
SPEEDUP_FLOOR = 1.3


@dataclass
class OptimizerBenchResult:
    join_left: int
    join_right: int
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
             "yes" if row["speedup"] >= SPEEDUP_FLOOR else "NO"]
            for row in self.rows
        ]
        table = render_table(
            f"Optimizer v2 — pushdown on vs off "
            f"(parallelism={self.parallelism}, median of {self.rounds})",
            ["workload", "records", "v2", "baseline", "speedup",
             f"gate>={SPEEDUP_FLOOR:.1f}x"],
            table_rows,
        )
        verdict = (
            "OK: pushdown clears the wall-clock floor with equal results."
            if self.ok else
            "FAIL: the speedup fell below the floor or results disagreed."
        )
        return table + "\n\n" + verdict + f"\nArtifact: {self.artifact_path}"


def _environment(parallelism: int):
    from repro.dataflow.environment import ExecutionEnvironment
    return ExecutionEnvironment(
        parallelism=parallelism,
        config=RuntimeConfig(check_invariants=False, trace=False),
    )


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
    return elapsed, result


def _measure(bench, rounds: int):
    """Interleaved v2/baseline medians plus a result-equality check."""
    bench(True)  # warm both modes before timing
    bench(False)
    optimized_times, baseline_times = [], []
    optimized = baseline = None
    for _ in range(rounds):
        elapsed, optimized = bench(True)
        optimized_times.append(elapsed)
        elapsed, baseline = bench(False)
        baseline_times.append(elapsed)
    return (
        statistics.median(optimized_times),
        statistics.median(baseline_times),
        sorted(optimized) == sorted(baseline),
    )


def run(join_left: int = 600_000, join_right: int = 60_000,
        parallelism: int = 4, rounds: int = 3,
        save_artifact: bool = True) -> OptimizerBenchResult:
    result = OptimizerBenchResult(
        join_left=join_left,
        join_right=join_right,
        parallelism=parallelism,
        rounds=rounds,
    )
    optimized_s, baseline_s, agree = _measure(
        lambda on: _run_pushdown(join_left, join_right, parallelism, on),
        rounds,
    )
    speedup = baseline_s / optimized_s if optimized_s > 0 else float("inf")
    result.rows.append({
        "workload": "filter pushdown (1% selective join)",
        "records": join_left + join_right,
        "optimized_s": optimized_s,
        "baseline_s": baseline_s,
        "speedup": speedup,
        "results_agree": agree,
    })
    result.ok = agree and speedup >= SPEEDUP_FLOOR

    if save_artifact:
        payload = {
            "experiment": "optimizer",
            "meta": bench_meta(
                backend="simulated",
                parallelism=parallelism,
                rounds=rounds,
            ),
            "join_left": join_left,
            "join_right": join_right,
            "parallelism": parallelism,
            "rounds": rounds,
            "speedup_floor": SPEEDUP_FLOOR,
            "ok": result.ok,
            "note": (
                "Compares the same selective-filter join with and "
                "without declared read fields (the only thing pushdown "
                "legality keys on) and gates on wall-clock: the median "
                "of interleaved rounds; both programs must collect "
                "identical results."
            ),
            "rows": result.rows,
        }
        result.artifact_path = write_artifact(ARTIFACT, payload)
    return result

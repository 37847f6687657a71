"""Out-of-core smoke: CC whose state is ~10x the memory budget.

The workload is semi-naive incremental connected components over
``CHAINS`` disjoint chains.  The iteration starts from an **empty**
solution set and a workset of one seed per chain; each superstep the
frontier discovers the next chain vertex through the anti-join shape
(``cogroup(solution_set, inner=False)``) and inserts a record carrying
a distinct ~9 KB payload.  The converged solution set therefore holds
``CHAINS * CHAIN_LEN`` fat records — far more than the forced
``memory_budget_bytes`` — while any single superstep only touches one
frontier's worth of them.

Three configurations run, each in its own forked child so peak-RSS
high-water marks don't bleed between them:

* ``simulated / unbounded`` — the in-memory reference.  Its peak RSS
  *should* be large (the whole state is heap-resident); recorded for
  contrast, not gated.
* ``simulated / budget`` — the out-of-core run.  Gated three ways:
  results bitwise identical to the reference, solution state on disk
  at least ``STATE_RATIO_FLOOR``x the budget, and peak RSS growth (the
  VmHWM delta after a ``/proc/self/clear_refs`` reset) at most
  ``2 * budget + RSS_ALLOWANCE``.
* ``pool / budget`` — the persistent-worker backend under the same
  budget; gated on bitwise identity (RSS lives in the workers, whose
  budget is per-process).  Both budgeted runs fail if bytes reach disk
  with no ``records_spilled`` counted.

Results cross the identity comparison as ``(vertex, component,
stable_hash(record))`` digests, so the full payload content is attested
without ever gathering the fat records into one process.

Exit is nonzero on any gate violation; the JSON artifact lands in
``benchmarks/results/BENCH_outofcore.json``.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from dataclasses import dataclass, field

from repro.bench.reporting import (
    bench_meta,
    format_quantity,
    render_table,
    write_artifact,
)

ARTIFACT = "BENCH_outofcore.json"

#: graph shape: disjoint chains, one discovered vertex per superstep each
CHAINS = 256
CHAIN_LEN = 44
#: distinct payload bytes attached to every discovered solution record
PAYLOAD_BYTES = 9216
#: the forced memory budget (8 MiB)
BUDGET_BYTES = 8 * 1024 * 1024
#: the solution state on disk must be at least this multiple of the budget
STATE_RATIO_FLOOR = 10.0
#: fixed allowance on top of 2x budget for the RSS gate: interpreter
#: churn, the constant edge table, one superstep's frontier, result rows
RSS_ALLOWANCE = 24 * 1024 * 1024

PARALLELISM = 4


# ----------------------------------------------------------------------
# peak-RSS measurement (Linux high-water mark, resettable)


def _read_status_kb(field_name: str):
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field_name + ":"):
                    return int(line.split()[1]) * 1024
    except OSError:
        return None
    return None


def _reset_peak_rss() -> bool:
    """Reset VmHWM to the current RSS; True if the platform supports it."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


# ----------------------------------------------------------------------
# the workload


def _chain_edges():
    edges = []
    for chain in range(CHAINS):
        base = chain * CHAIN_LEN
        for i in range(CHAIN_LEN - 1):
            edges.append((base + i, base + i + 1))
    return edges


def _build_digest(env):
    """The CC dataflow; returns the digest dataset to collect."""
    reps = PAYLOAD_BYTES // 8
    edges = env.from_iterable(_chain_edges(), name="chain_edges")
    seeds = env.from_iterable(
        [(chain * CHAIN_LEN, chain * CHAIN_LEN) for chain in range(CHAINS)],
        name="seeds",
    )
    empty_solution = env.from_iterable([], name="empty_solution")
    iteration = env.iterate_delta(
        empty_solution, seeds, key_fields=0,
        max_iterations=CHAIN_LEN + 2, name="outofcore_cc",
    )

    def discover(vid, candidates, stored):
        if stored:
            return  # semi-naive: never revisit a discovered vertex
        root = min(candidate for (_v, candidate) in candidates)
        yield (vid, root, ("%08d" % vid) * reps)

    delta = iteration.workset.cogroup(
        iteration.solution_set, 0, 0, discover, inner=False, name="discover"
    )
    next_workset = delta.join(
        edges, 0, 0, lambda d, e: (e[1], d[1]), name="frontier"
    )
    result = iteration.close(delta, next_workset, mode="superstep")

    from repro.common.hashing import stable_hash

    return result.map(
        lambda r: (r[0], r[1], stable_hash(r)), name="digest"
    )


def _child_run(conn, budget, backend):
    """One configuration, in its own process (fresh RSS high-water mark)."""
    try:
        import gc

        from repro.dataflow.environment import ExecutionEnvironment
        from repro.runtime.config import RuntimeConfig

        gc.collect()
        rss_resettable = _reset_peak_rss()
        rss_floor = _read_status_kb("VmRSS")

        config = RuntimeConfig(
            check_invariants=False, memory_budget_bytes=budget
        )
        env = ExecutionEnvironment(
            parallelism=PARALLELISM, config=config, backend=backend
        )
        started = time.perf_counter()
        digest = sorted(env.collect(_build_digest(env)))
        elapsed = time.perf_counter() - started
        disk_bytes = (
            env.storage_session.disk_bytes()
            if env.storage_session is not None else 0
        )
        peak = _read_status_kb("VmHWM")
        peak_delta = None
        if rss_resettable and peak is not None and rss_floor is not None:
            peak_delta = max(0, peak - rss_floor)
        payload = {
            "ok": True,
            "digest": digest,
            "elapsed_s": elapsed,
            "disk_bytes": disk_bytes,
            "peak_rss_delta": peak_delta,
            "records_spilled": env.metrics.records_spilled,
            "bytes_spilled": env.metrics.bytes_spilled,
            "supersteps": (
                env.iteration_summaries[0].supersteps
                if env.iteration_summaries else None
            ),
            "converged": (
                env.iteration_summaries[0].converged
                if env.iteration_summaries else None
            ),
        }
        env.close()
        conn.send(payload)
    except BaseException:
        conn.send({"ok": False, "error": traceback.format_exc()})
    finally:
        conn.close()


def _run_config(budget, backend):
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    process = ctx.Process(
        target=_child_run, args=(child_conn, budget, backend), daemon=False
    )
    process.start()
    child_conn.close()
    try:
        payload = parent_conn.recv()
    except EOFError:
        payload = {"ok": False,
                   "error": "bench child died without reporting"}
    finally:
        parent_conn.close()
        process.join()
    if not payload.get("ok"):
        raise RuntimeError(
            f"out-of-core bench child ({backend or 'simulated'}, "
            f"budget={budget}) failed:\n{payload.get('error')}"
        )
    return payload


# ----------------------------------------------------------------------
# reporting


@dataclass
class OutOfCoreResult:
    budget_bytes: int
    vertices: int
    payload_bytes: int
    rows: list[dict] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    ok: bool = True
    artifact_path: str = ""

    def report(self) -> str:
        def fmt_mb(value):
            if value is None:
                return "-"
            return f"{value / (1024 * 1024):.1f} MB"

        table_rows = [
            [row["label"],
             fmt_mb(row["budget_bytes"]),
             fmt_mb(row["peak_rss_delta"]),
             fmt_mb(row["disk_bytes"]),
             format_quantity(row["records_spilled"]),
             f"{row['elapsed_s']:.2f} s",
             "yes" if row["identical"] else "NO"]
            for row in self.rows
        ]
        table = render_table(
            f"Out-of-core CC — {self.vertices} vertices x "
            f"~{self.payload_bytes} B payload vs a "
            f"{self.budget_bytes // (1024 * 1024)} MiB budget "
            f"(parallelism={PARALLELISM})",
            ["configuration", "budget", "peak RSS growth", "state on disk",
             "spilled", "wall", "identical"],
            table_rows,
        )
        if self.ok:
            verdict = (
                "OK: out-of-core runs are bitwise identical to the "
                f"in-memory reference, hold >= {STATE_RATIO_FLOOR:.0f}x "
                "the budget on disk, count their disk writes as spills, "
                "and stay within the RSS gate."
            )
        else:
            verdict = "FAIL:\n  - " + "\n  - ".join(self.failures)
        return table + "\n\n" + verdict + f"\nArtifact: {self.artifact_path}"


def run(save_artifact: bool = True) -> OutOfCoreResult:
    vertices = CHAINS * CHAIN_LEN
    result = OutOfCoreResult(
        budget_bytes=BUDGET_BYTES,
        vertices=vertices,
        payload_bytes=PAYLOAD_BYTES,
    )
    rss_gate = 2 * BUDGET_BYTES + RSS_ALLOWANCE

    configs = [
        ("simulated / unbounded", None, None),
        ("simulated / budget", BUDGET_BYTES, None),
        ("pool / budget", BUDGET_BYTES, "pool"),
    ]
    reference = None
    for label, budget, backend in configs:
        payload = _run_config(budget, backend)
        if reference is None:
            reference = payload["digest"]
        identical = payload["digest"] == reference
        row = {
            "label": label,
            "backend": backend or "simulated",
            "budget_bytes": budget,
            "elapsed_s": payload["elapsed_s"],
            "peak_rss_delta": payload["peak_rss_delta"],
            "disk_bytes": payload["disk_bytes"],
            "records_spilled": payload["records_spilled"],
            "bytes_spilled": payload["bytes_spilled"],
            "supersteps": payload["supersteps"],
            "converged": payload["converged"],
            "identical": identical,
        }
        result.rows.append(row)
        if not identical:
            result.failures.append(
                f"{label}: results differ from the in-memory reference"
            )
        if not payload["converged"]:
            result.failures.append(f"{label}: iteration did not converge")
        if budget is not None and payload["disk_bytes"] > 0 \
                and payload["records_spilled"] == 0:
            result.failures.append(
                f"{label}: {payload['disk_bytes']} bytes on disk but no "
                "spilled record counted — a disk write bypassed the "
                "spill accounting"
            )
        if budget is not None and backend is None:
            if payload["disk_bytes"] < STATE_RATIO_FLOOR * budget:
                result.failures.append(
                    f"{label}: only {payload['disk_bytes']} bytes on disk "
                    f"(< {STATE_RATIO_FLOOR:.0f}x the {budget} byte budget) "
                    "— the state never left memory"
                )
            delta = payload["peak_rss_delta"]
            if delta is None:
                row["rss_gate"] = "unsupported (no /proc clear_refs)"
            elif delta > rss_gate:
                result.failures.append(
                    f"{label}: peak RSS grew {delta} bytes, above the "
                    f"gate of 2*budget + {RSS_ALLOWANCE} = {rss_gate}"
                )
    result.ok = not result.failures

    if save_artifact:
        payload = {
            "experiment": "outofcore",
            "meta": bench_meta(
                backend="simulated+pool",
                memory_budget_bytes=BUDGET_BYTES,
                parallelism=PARALLELISM,
            ),
            "chains": CHAINS,
            "chain_len": CHAIN_LEN,
            "vertices": vertices,
            "payload_bytes": PAYLOAD_BYTES,
            "budget_bytes": BUDGET_BYTES,
            "state_ratio_floor": STATE_RATIO_FLOOR,
            "rss_gate_bytes": rss_gate,
            "rss_allowance_bytes": RSS_ALLOWANCE,
            "parallelism": PARALLELISM,
            "ok": result.ok,
            "failures": result.failures,
            "note": (
                "Semi-naive incremental CC grown from an empty solution "
                "set; every discovered vertex carries a distinct payload, "
                "so the converged solution state dwarfs the forced "
                "memory budget.  Peak RSS growth is the VmHWM delta "
                "after a /proc/self/clear_refs reset in a fresh fork; "
                "identity crosses as (vertex, component, "
                "stable_hash(record)) digests of the full records."
            ),
            "rows": [
                {k: v for k, v in row.items()} for row in result.rows
            ],
        }
        result.artifact_path = write_artifact(ARTIFACT, payload)
    return result

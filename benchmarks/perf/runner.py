"""Parent side: spawn rounds as child processes and fold their reports.

Imports nothing from the engine, so ``--compare`` and the contract's
"fails cleanly without the program" case never depend on it; a missing
engine surfaces as a failed child.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: names, units, directions and bounds live in one place: the contract
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
END_TO_END = {m["name"]: m for m in CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m for m in CONTRACT["per_layer"]}

ROUNDS = 5
#: seconds a child may take before it is killed and counted as failed;
#: five timed rounds, or a traced pass with the probes, stay inside the
#: contract's 180 s even if every one of them hangs
CHILD_TIMEOUT_S = {"timed": 30.0, "traced": 60.0, "probes": 60.0}
#: spill directories land here, inside the benchmark's own directory
SCRATCH = Path(__file__).resolve().parent / ".scratch"

#: per-layer metrics that exist on some workloads only; the others
#: neither measure nor report them
_ITERATIVE = set(WORKLOADS) - {"relational-sim"}
ONLY_ON = {
    "iterations.superstep_ms_p50": _ITERATIVE,
    "iterations.superstep_ms_p95": _ITERATIVE,
    "storage.budget_slowdown_x": {"cc-bulk-spill-sim"},
    "cluster.pool_speedup_x": {"pagerank-bulk-pool", "cc-longtail-pool"},
}
#: layer probes do not depend on the workload: measured once per run
PROBES = [name for name in PER_LAYER if name.startswith("probe.")]


def layer_names(workload: str) -> list:
    """The per-layer metrics ``workload``'s traced pass must report."""
    return [name for name in PER_LAYER
            if name not in PROBES
            and workload in ONLY_ON.get(name, WORKLOADS)]


class RoundFailed(Exception):
    """A child timed out, crashed, or printed no report."""


def run_child(mode: str, seed: int, workload: str = "",
              seconds: float = 0.0) -> dict:
    """One timed round, traced pass or probe pass (``mode``) in a fresh
    process; its report, or ``RoundFailed``."""
    SCRATCH.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src")])
    env["TMPDIR"] = str(SCRATCH)
    command = [
        sys.executable, "-m", "benchmarks.perf.child", "--mode", mode,
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--spawned-at", repr(time.time()),
    ]
    # a session of its own, so a hung round's pool workers die with it
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, text=True, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = child.communicate(timeout=CHILD_TIMEOUT_S[mode])
    except subprocess.TimeoutExpired:
        out, err = "", f"timed out after {CHILD_TIMEOUT_S[mode]:.0f} s"
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    if child.returncode != 0 or not out.strip():
        raise RoundFailed(f"{workload or mode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


@contextlib.contextmanager
def scratch_removed():
    """Leave no spill directory behind, however the measurement ends."""
    try:
        yield
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)


def lower_decile(walls: list) -> float:
    """The ``job_wall_s`` statistic.

    The host slows down by 20-50 % for seconds to minutes at a time.
    That only ever adds time, so the fast tail of a run's jobs follows
    the host less than their middle: over three sets of runs of one
    commit the set medians lay up to 22 % apart on the median of the
    jobs and 16 % on the lower decile (README, *Repeatability*).  A
    quantile, unlike the minimum, does not improve with the number of
    jobs a run happens to fit in.
    """
    if len(walls) == 1:
        return walls[0]
    return statistics.quantiles(walls, n=10, method="inclusive")[0]


def fold_rounds(rounds: list, lost: list) -> dict:
    """End-to-end numbers of one workload from its timed rounds.

    ``lost`` holds the messages of rounds that produced no report; each
    counts as one job attempted and failed.
    """
    failures = [f for r in rounds for f in r["failures"]] + lost
    attempted = sum(r["attempted"] for r in rounds) + len(lost)
    out = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "job_fail_frac": len(failures) / attempted,
    }
    walls = [wall for r in rounds for wall in r["job_wall_s"]]
    if walls:
        first = rounds[0]
        job_wall_s = lower_decile(walls)
        out.update(
            jobs=len(walls),
            job_wall_median_s=statistics.median(walls),
            job_walls_s=walls,
            input_records=first["input_records"],
            sizes=first["sizes"],
            supersteps=first["supersteps"],
            config=first["config"],
            versions=first["versions"],
            end_to_end={
                "job_wall_s": job_wall_s,
                "records_per_s": first["input_records"] / job_wall_s,
                "peak_rss_mb": statistics.median(
                    r["peak_rss_mb"] for r in rounds
                ),
                "setup_s": statistics.median(r["setup_s"] for r in rounds),
            },
        )
    return out


def timed_rounds(workloads, seed: int, seconds: float) -> dict:
    """``ROUNDS`` rounds of every workload, interleaved across workloads
    so a noisy minute on a shared host hits each a little."""
    rounds = {name: [] for name in workloads}
    lost = {name: [] for name in workloads}
    for _ in range(ROUNDS):
        for name in workloads:
            try:
                rounds[name].append(
                    run_child("timed", seed, name, seconds / ROUNDS)
                )
            except RoundFailed as failure:
                lost[name].append(str(failure))
    return {name: fold_rounds(rounds[name], lost[name]) for name in workloads}


def _layer_pass(mode: str, seed: int, names: list, workload: str = "") -> dict:
    """The ``names`` metrics from one traced or probe child; a child
    that is lost, or reports too few of them, counts as a failure."""
    try:
        report = run_child(mode, seed, workload)
    except RoundFailed as failure:
        return {"attempted": 1, "failed": 1, "failures": [str(failure)],
                "metrics": {}}
    missing = [name for name in names if name not in report["metrics"]]
    if missing:
        report["failures"].append(f"{mode} pass did not report {missing}")
    return {
        "attempted": report["attempted"],
        "failed": len(report["failures"]),
        "failures": report["failures"],
        "metrics": {name: report["metrics"][name]
                    for name in names if name not in missing},
        "ranks": report.get("ranks", []),
    }


def traced_pass(workload: str, seed: int) -> dict:
    """The per-layer numbers of one workload, probes excluded."""
    return _layer_pass("traced", seed, layer_names(workload), workload)


def probe_pass(seed: int) -> dict:
    """The layer probes, which belong to no workload."""
    return _layer_pass("probes", seed, PROBES)

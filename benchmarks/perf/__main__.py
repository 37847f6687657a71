"""All six workloads with one command, and the repeatability self-check.

``python -m benchmarks.perf [--seed 11] [--out FILE]`` runs the timed
rounds of every workload (interleaved), then each workload's traced
pass and the layer probes, prints every metric by name with its unit,
and exits non-zero if any job raised, timed out or returned a wrong
result.  The run length is the contract's ``run_seconds``.

``python -m benchmarks.perf --compare A.json B.json`` compares two such
results of the same commit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from benchmarks.perf import runner

#: units of the per-layer metrics that are counts made by the program;
#: on the simulated backend they must repeat exactly
EXACT_UNITS = {"count", "records", "bytes"}


def run_suite(seed: int) -> dict:
    seconds = float(runner.CONTRACT["run_seconds"])
    with runner.scratch_removed():
        workloads = runner.timed_rounds(runner.WORKLOADS, seed, seconds)
        for name, report in workloads.items():
            traced = runner.traced_pass(name, seed)
            report["attempted"] += traced["attempted"]
            report["failed"] += traced["failed"]
            report["failures"] += traced["failures"]
            report["job_fail_frac"] = report["failed"] / report["attempted"]
            report["per_layer"] = traced["metrics"]
            report["ranks"] = traced["ranks"]
        probes = runner.probe_pass(seed)
    measured = [r for r in workloads.values() if "end_to_end" in r]
    return {
        "meta": {
            "seed": seed,
            "seconds_per_workload": seconds,
            "rounds": runner.ROUNDS,
            "nproc": os.cpu_count(),
            "platform": sys.platform,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            # the same for every workload but the memory budget
            "versions": measured[0]["versions"] if measured else None,
            "config": {name: r.get("config")
                       for name, r in workloads.items()},
        },
        "workloads": workloads,
        "probes": probes,
    }


def _failure_lines(report: dict) -> list:
    return [f"   FAILED: {failure.strip().splitlines()[-1]}"
            for failure in report["failures"]]


def _metric_lines(specs: dict, values: dict) -> list:
    return [f"   {name:<42}{values[name]:>16.6g} {spec['unit']}"
            for name, spec in specs.items() if name in values]


def render(result: dict) -> str:
    meta = result["meta"]
    lines = [
        f"seed {meta['seed']}  nproc {meta['nproc']}  "
        f"versions {meta['versions']}  rounds {meta['rounds']}  "
        f"seconds/workload {meta['seconds_per_workload']}",
    ]
    for name, report in result["workloads"].items():
        lines.append("")
        lines.append(
            f"== {name}: input_records {report.get('input_records')} "
            f"{report.get('sizes')} supersteps {report.get('supersteps')} "
            f"n={report.get('jobs', 0)} timed jobs "
            f"(median {report.get('job_wall_median_s', 0.0):.4f} s)"
        )
        lines.append(f"   config {meta['config'][name]}")
        lines.append(
            f"   {'job_fail_frac':<42}{report['job_fail_frac']:>16.6g} "
            f"fraction ({report['failed']} of {report['attempted']})"
        )
        lines += _metric_lines(runner.END_TO_END,
                               report.get("end_to_end", {}))
        lines += _metric_lines(runner.PER_LAYER, report["per_layer"])
        for rank, profile in enumerate(report.get("ranks", [])):
            shares = "  ".join(
                f"{metric.split('.')[1]} {seconds:.3f}"
                for metric, seconds in profile.items()
            )
            lines.append(f"   rank {rank} self_s: {shares}")
        lines += _failure_lines(report)
    probes = result["probes"]
    lines += ["", "== layer probes (cc-delta-sim's graph, no workload)"]
    lines += _metric_lines(runner.PER_LAYER, probes["metrics"])
    lines += _failure_lines(probes)
    return "\n".join(lines)


def compare(first: dict, second: dict) -> tuple[str, int]:
    """Two results of one commit: differences against the bounds.

    A difference beyond a bound is *unresolved* — the host cannot tell
    such a change from its own noise — never a regression.  A count
    that differs on the simulated backend fails the comparison, and
    results taken with different run lengths or round counts are
    refused.
    """
    for key in ("seconds_per_workload", "rounds"):
        if first["meta"][key] != second["meta"][key]:
            return (f"not comparable: {key} is {first['meta'][key]} in the "
                    f"first result and {second['meta'][key]} in the second"), 2
    lines = [f"{'workload':<20}{'metric':<16}{'first':>14}{'second':>14}"
             f"{'worse by':>10}{'bound':>8}  verdict"]
    drifted = []
    same_seed = first["meta"]["seed"] == second["meta"]["seed"]
    for name in runner.WORKLOADS:
        a, b = first["workloads"][name], second["workloads"][name]
        for metric, spec in runner.END_TO_END.items():
            x, y = a["end_to_end"][metric], b["end_to_end"][metric]
            worse = (y - x) / x if spec["better"] == "lower" else (x - y) / x
            verdict = "ok" if abs(worse) <= spec["bound"] else "unresolved"
            lines.append(
                f"{name:<20}{metric:<16}{x:>14.6g}{y:>14.6g}"
                f"{worse:>+10.1%}{spec['bound']:>8.0%}  {verdict}"
            )
        if not (same_seed and name.endswith("-sim")):
            continue
        for metric in runner.layer_names(name):
            if runner.PER_LAYER[metric]["unit"] in EXACT_UNITS and \
                    a["per_layer"][metric] != b["per_layer"][metric]:
                drifted.append(
                    f"{name} {metric}: {a['per_layer'][metric]} != "
                    f"{b['per_layer'][metric]}"
                )
    lines += [f"COUNT DIFFERS: {line}" for line in drifted]
    if not same_seed:
        lines.append("seeds differ: counts are not compared")
    elif not drifted:
        lines.append("simulated-backend counts identical")
    return "\n".join(lines), 1 if drifted else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf", description=__doc__
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--out", help="write the full result as JSON")
    parser.add_argument("--append-history", metavar="PATH",
                        help="append the result as one JSON line")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        results = []
        for path in args.compare:
            with open(path, encoding="utf-8") as handle:
                results.append(json.load(handle))
        text, status = compare(*results)
        print(text)
        return status
    result = run_suite(args.seed)
    print(render(result))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1)
            handle.write("\n")
    if args.append_history:
        with open(args.append_history, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(result) + "\n")
    reports = [*result["workloads"].values(), result["probes"]]
    return 1 if any(report["failed"] for report in reports) else 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark contract's entry point: one workload, one run.

``python3 benchmarks/perf/run.py --workload W --seed N --seconds S
--trace 0|1`` runs ``ROUNDS`` fresh-process rounds of ``W`` (or, with
``--trace 1``, its traced pass and the layer probes), checks every job
against the workload's oracle, and prints one JSON object as the last
line of standard output.  See ``README.md``; ``python -m
benchmarks.perf`` runs all six workloads with one command.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.perf import runner  # noqa: E402


def traced_layers(workload: str, seed: int) -> dict:
    """Every per-layer metric, as the contract wants them on every
    workload: the workload's traced pass, the probes, and a 0 for each
    metric that does not exist on this workload."""
    traced = runner.traced_pass(workload, seed)
    probes = runner.probe_pass(seed)
    padding = {name: 0.0 for name, only_on in runner.ONLY_ON.items()
               if workload not in only_on}
    return {
        "attempted": traced["attempted"] + probes["attempted"],
        "failed": traced["failed"] + probes["failed"],
        "failures": traced["failures"] + probes["failures"],
        "metrics": {**traced["metrics"], **probes["metrics"], **padding},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=runner.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with runner.scratch_removed():
        if args.trace:
            report = traced_layers(args.workload, args.seed)
            values, specs = report["metrics"], runner.PER_LAYER
        else:
            report = runner.timed_rounds(
                [args.workload], args.seed, args.seconds
            )[args.workload]
            values, specs = report.get("end_to_end", {}), runner.END_TO_END
    for failure in report["failures"]:
        print(failure, file=sys.stderr)
    if not values or values.keys() != specs.keys():
        # nothing measurable ran (for one, the engine is not there)
        return 2
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": values[name], "unit": spec["unit"]}
            for name, spec in specs.items()
        },
    }))
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

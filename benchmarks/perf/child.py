"""One round of one workload, in a process of its own.

``python -m benchmarks.perf.child --mode timed|traced --workload W
--seed S --seconds T --spawned-at EPOCH`` sets the workload up (import,
generate inputs, environment / pool, one cold job), then either runs
timed jobs for ``T`` seconds (end-to-end numbers) or the traced pass
(per-layer numbers), and prints one JSON object as its last line of
output.  ``--mode probes`` runs the layer probes, which need no workload.

A fresh process per round is what makes ``setup_s`` and ``peak_rss_mb``
per-workload quantities; the parent strips every ``REPRO_*`` variable
from this process's environment.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

#: a round times at least this many jobs, however short its time slice
MIN_TIMED_JOBS = 3
#: stop a round early once this many of its jobs have failed
MAX_FAILURES = 3


def set_up(args):
    """The set-up every round pays, phase by phase.

    Returns ``(session, expected, phases)``.  The reference result is
    computed after the clock stops: it is the benchmark's cost, not the
    program's.
    """
    from benchmarks.perf.session import Session, Tally
    from benchmarks.perf.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    phases = {"setup.import_s": time.time() - args.spawned_at}
    mark = time.perf_counter()
    inputs = workload.make_inputs(args.seed)
    phases["setup.generate_s"] = time.perf_counter() - mark
    mark = time.perf_counter()
    session = Session(workload, inputs, Tally())
    phases["setup.env_s"] = time.perf_counter() - mark
    phases["setup.cold_job_s"], cold_result = session.run_job()
    phases["setup_s"] = time.time() - args.spawned_at
    expected = workload.reference(inputs)
    session.verify(cold_result, expected)
    return session, expected, phases


def versions() -> dict:
    import platform

    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__}


def timed_round(args) -> dict:
    from benchmarks.perf.session import peak_rss_mib

    session, expected, phases = set_up(args)
    try:
        metrics = session.env.metrics
        walls = []
        supersteps = 0
        deadline = time.perf_counter() + args.seconds
        while (len(walls) < MIN_TIMED_JOBS
               or time.perf_counter() < deadline):
            before = metrics.supersteps
            wall, result = session.run_job()
            if session.verify(result, expected):
                walls.append(wall)
                supersteps = metrics.supersteps - before
            elif len(session.tally.failures) >= MAX_FAILURES:
                break
        return {
            "setup_s": phases["setup_s"],
            "job_wall_s": walls,
            "peak_rss_mb": peak_rss_mib(session.pids),
            "attempted": session.tally.attempted,
            "failures": session.tally.failures,
            "input_records": session.workload.input_records(session.inputs),
            "sizes": session.workload.sizes(session.inputs),
            "supersteps": supersteps,
            "config": repr(session.config),
            "versions": versions(),
        }
    finally:
        session.close()


def traced_round(args) -> dict:
    from benchmarks.perf import layers

    session, expected, phases = set_up(args)
    del phases["setup_s"]  # end-to-end; the timed rounds report it
    layer_metrics, ranks = layers.measure(session, expected)
    return {
        "metrics": {**phases, **layer_metrics},
        "ranks": ranks,
        "attempted": session.tally.attempted,
        "failures": session.tally.failures,
    }


def probe_round(args) -> dict:
    from benchmarks.perf import probes

    return {"metrics": probes.measure(args.seed), "attempted": 1,
            "failures": []}


MODES = {"timed": timed_round, "traced": traced_round, "probes": probe_round}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.perf.child")
    parser.add_argument("--mode", required=True, choices=MODES)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)
    print(json.dumps(MODES[args.mode](args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line experiment runner: ``python -m repro.bench <experiment>``.

Runs one (or all) of the paper's table/figure reproductions and prints
the report, without going through pytest.  Useful for quick looks and
for regenerating ``benchmarks/results/`` piecemeal.

Examples::

    python -m repro.bench --list
    python -m repro.bench fig2
    python -m repro.bench fig9 fig10
    python -m repro.bench all
    python -m repro.bench trace connected_components \
        --backends simulated,pool
"""

from __future__ import annotations

import argparse
import sys
import time


def _registry():
    from repro.bench import audit
    from repro.bench.experiments import (
        dataplane, extensions, fig2, fig4, fig7, fig8, fig9, fig10, fig11,
        fig12, optimizer_bench, outofcore, scaling, table1, table2,
        telemetry_overhead,
    )
    return {
        "audit": ("Differential audit — engines agree, invariants hold",
                  audit.run),
        "scaling": ("Backend scaling — pool workers vs simulator",
                    scaling.run),
        "dataplane": ("Data plane — batched vs record-at-a-time framing",
                      dataplane.run),
        "optimizer": ("Optimizer v2 — filter pushdown below the ship",
                      optimizer_bench.run),
        "outofcore": ("Out-of-core — CC state ~10x the memory budget, "
                      "RSS-gated", outofcore.run),
        "telemetry": ("Telemetry overhead — REPRO_TELEMETRY=1 within "
                      "5% of off", telemetry_overhead.run),
        "table1": ("Table 1 — iteration templates", table1.run),
        "table2": ("Table 2 — dataset properties", table2.run),
        "fig2": ("Figure 2 — CC effective work (FOAF)", fig2.run),
        "fig4": ("Figure 4 — optimizer PageRank plans", fig4.run),
        "fig7": ("Figure 7 — PageRank totals", fig7.run),
        "fig8": ("Figure 8 — PageRank per-iteration", fig8.run),
        "fig9": ("Figure 9 — CC totals", fig9.run),
        "fig10": ("Figure 10 — CC on webbase to convergence", fig10.run),
        "fig11": ("Figure 11 — CC per-iteration", fig11.run),
        "fig12": ("Figure 12 — time vs messages", fig12.run),
        "adaptive": ("Extension — adaptive PageRank",
                     extensions.run_adaptive_pagerank),
        "ablation-optimizer": ("Ablation — optimizer vs naive planner",
                               extensions.run_optimizer_ablation),
        "ablation-modes": ("Ablation — delta execution modes",
                           extensions.run_modes_ablation),
    }


def main(argv=None) -> int:
    registry = _registry()
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments", nargs="*",
        help=f"experiment ids ({', '.join(registry)}) or 'all'",
    )
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and exit")
    parser.add_argument("--save", action="store_true",
                        help="also persist reports to benchmarks/results/")
    parser.add_argument(
        "--backends", default=None, metavar="NAMES",
        help="comma-separated execution backends for the audit and trace "
             "commands (e.g. 'simulated,pool')",
    )
    parser.add_argument(
        "--workers", default=None, metavar="COUNTS",
        help="comma-separated worker counts for the scaling experiment "
             "(e.g. '1,2'); default 1,2,4,8",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="monitor command: skip the live frames, evaluate the final "
             "state once and exit (the CI smoke mode)",
    )
    parser.add_argument(
        "--interval", type=float, default=None, metavar="SECONDS",
        help="monitor command: worker heartbeat cadence (default 0.1)",
    )
    args = parser.parse_args(argv)

    worker_counts = None
    if args.workers:
        try:
            worker_counts = tuple(
                int(part) for part in args.workers.split(",") if part.strip()
            )
        except ValueError:
            parser.error(f"--workers must be integers, got {args.workers!r}")

    backends = None
    if args.backends:
        backends = tuple(
            part.strip() for part in args.backends.split(",") if part.strip()
        )

    if args.list or not args.experiments:
        width = max(len(name) for name in registry)
        for name, (title, _fn) in registry.items():
            print(f"  {name.ljust(width)}  {title}")
        from repro.bench import trace as trace_mod
        print(f"  {'trace <workload>'.ljust(width)}  "
              "Traced run + per-phase profile; writes JSONL and "
              "Chrome-trace artifacts\n"
              f"  {''.ljust(width)}  workloads: "
              f"{', '.join(sorted(trace_mod.WORKLOADS))}")
        print(f"  {'monitor <workload>'.ljust(width)}  "
              "Live worker-health view of a pool run (heartbeats, "
              "supersteps, RSS); --once for the smoke check")
        return 0

    if args.experiments[0] == "trace":
        from repro.bench import trace as trace_mod
        workloads = args.experiments[1:] or ["connected_components"]
        unknown = [w for w in workloads if w not in trace_mod.WORKLOADS]
        if unknown:
            parser.error(
                f"unknown trace workload(s): {', '.join(unknown)} "
                f"(available: {', '.join(sorted(trace_mod.WORKLOADS))})"
            )
        status = 0
        for workload in workloads:
            print(f"\n### Trace — {workload}")
            started = time.perf_counter()
            result = trace_mod.run(
                workload,
                backends=backends or ("simulated", "pool"),
            )
            elapsed = time.perf_counter() - started
            report = result.report()
            if args.save:
                from repro.bench.reporting import persist_report
                persist_report(f"trace_{workload}", report)
            else:
                print(report)
            print(f"\n[trace {workload} finished in {elapsed:.1f} s]")
            if not result.ok:
                status = 1
        return status

    if args.experiments[0] == "monitor":
        from repro.bench import monitor as monitor_mod
        workloads = args.experiments[1:] or ["connected_components"]
        unknown = [w for w in workloads if w not in monitor_mod.WORKLOADS]
        if unknown:
            parser.error(
                f"unknown monitor workload(s): {', '.join(unknown)} "
                f"(available: {', '.join(sorted(monitor_mod.WORKLOADS))})"
            )
        status = 0
        for workload in workloads:
            print(f"\n### Monitor — {workload}")
            result = monitor_mod.run(
                workload,
                once=args.once,
                interval_s=args.interval if args.interval else 0.1,
            )
            report = result.report()
            if args.save:
                from repro.bench.reporting import persist_report
                persist_report(f"monitor_{workload}", report)
            else:
                print(report)
            if not result.ok:
                status = 1
        return status

    requested = list(registry) if "all" in args.experiments else (
        args.experiments
    )
    unknown = [name for name in requested if name not in registry]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")

    status = 0
    for name in requested:
        title, run = registry[name]
        print(f"\n### {title} [{name}]")
        started = time.perf_counter()
        if backends and name == "audit":
            result = run(backends=backends)
        elif worker_counts and name == "scaling":
            result = run(worker_counts=worker_counts)
        else:
            result = run()
        elapsed = time.perf_counter() - started
        report = result.report()
        if args.save:
            from repro.bench.reporting import persist_report
            persist_report(name, report)
        else:
            print(report)
        print(f"\n[{name} finished in {elapsed:.1f} s]")
        if getattr(result, "ok", True) is False:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

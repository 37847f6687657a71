"""Extension experiments beyond the paper's figures.

* ``run_adaptive_pagerank`` — Section 7.2's claim that adaptive
  PageRank [25] is natural as an incremental iteration: compares the
  work of the adaptive delta iteration against bulk PageRank at equal
  result quality.
* ``run_optimizer_ablation`` — the paper's optimizer (Section 4.3) vs
  the naive rule-based planner on the same PageRank program.
* ``run_modes_ablation`` — superstep vs microstep vs async execution of
  the identical Match-variant CC plan (Section 5.2/5.3).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro import ExecutionEnvironment
from repro.algorithms import connected_components as cc
from repro.algorithms import pagerank as pr
from repro.bench.reporting import format_seconds, render_table
from repro.bench.workloads import bench_parallelism, graph


@dataclass
class SimpleReport:
    title: str
    headers: list
    rows: list
    shape: str = ""

    def report(self) -> str:
        text = render_table(self.title, self.headers, self.rows)
        if self.shape:
            text += "\n\n" + self.shape
        return text


def run_adaptive_pagerank(dataset: str = "wikipedia",
                          epsilon: float = 1e-7) -> SimpleReport:
    g = graph(dataset)
    parallelism = bench_parallelism()

    env_bulk = ExecutionEnvironment(parallelism)
    start = time.perf_counter()
    bulk = pr.pagerank_bulk(env_bulk, g, iterations=20)
    bulk_seconds = time.perf_counter() - start

    env_adapt = ExecutionEnvironment(parallelism)
    start = time.perf_counter()
    adaptive = pr.pagerank_adaptive(env_adapt, g, epsilon=epsilon)
    adaptive_seconds = time.perf_counter() - start

    deviation = max(
        abs(bulk[k] - adaptive.get(k, 0.0)) for k in bulk
    )
    rows = [
        ["bulk (20 iterations)", format_seconds(bulk_seconds),
         env_bulk.metrics.total_processed,
         env_bulk.metrics.records_shipped_remote],
        [f"adaptive (eps={epsilon:g})", format_seconds(adaptive_seconds),
         env_adapt.metrics.total_processed,
         env_adapt.metrics.records_shipped_remote],
    ]
    sizes = [s.workset_size for s in env_adapt.metrics.iteration_log]
    shape = (
        "Shape check (Sec. 7.2: converged pages stop propagating):\n"
        f"  adaptive workset decay: {sizes[0]} -> {sizes[-1]} over "
        f"{len(sizes)} supersteps\n"
        f"  max rank deviation between variants: {deviation:.2e}"
    )
    return SimpleReport(
        f"Extension — adaptive PageRank as an incremental iteration "
        f"({dataset})",
        ["variant", "time", "records processed", "messages"],
        rows, shape,
    )


def run_optimizer_ablation(dataset: str = "wikipedia") -> SimpleReport:
    g = graph(dataset)
    parallelism = bench_parallelism()
    rows = []
    seconds = {}
    for label, optimize in (("cost-based optimizer", True),
                            ("naive planner", False)):
        env = ExecutionEnvironment(parallelism, optimize=optimize)
        start = time.perf_counter()
        pr.pagerank_bulk(env, g, iterations=10)
        seconds[label] = time.perf_counter() - start
        rows.append([
            label, format_seconds(seconds[label]),
            env.metrics.records_shipped_remote,
            env.metrics.cache_hits,
        ])
    shape = (
        "Shape check: the optimizer should not lose to the naive planner\n"
        f"  time ratio naive/optimized = "
        f"{seconds['naive planner'] / seconds['cost-based optimizer']:.2f}"
    )
    return SimpleReport(
        f"Ablation — optimizer vs naive planner, PageRank on {dataset}",
        ["planner", "time", "messages", "cache hits"],
        rows, shape,
    )


def run_parallelism_scaling(dataset: str = "wikipedia",
                            widths=(1, 2, 4, 8)) -> SimpleReport:
    """How network traffic scales with cluster width per physical plan.

    Broadcast traffic grows ~linearly with the partition count while
    hash-partition traffic only approaches its (P-1)/P asymptote — the
    structural reason the optimizer's Figure-4 choice is also a function
    of the cluster size.
    """
    g = graph(dataset)
    rows = []
    for parallelism in widths:
        per_plan = {}
        for plan in ("broadcast", "partition"):
            env = ExecutionEnvironment(parallelism)
            pr.pagerank_bulk(env, g, iterations=4, plan=plan)
            steady = env.metrics.iteration_log[2]
            per_plan[plan] = steady.records_shipped_remote
        rows.append([
            parallelism, per_plan["broadcast"], per_plan["partition"],
            f"{per_plan['broadcast'] / max(per_plan['partition'], 1):.2f}",
        ])
    return SimpleReport(
        f"Extension — remote traffic per superstep vs cluster width "
        f"({dataset}, PageRank)",
        ["parallelism", "broadcast plan", "partition plan",
         "broadcast/partition"],
        rows,
        "Shape check: the broadcast plan's traffic grows ~(P-1)·|p|, "
        "outpacing the partition plan (vector shuffle saturates at "
        "(P-1)/P; only its combined-contribution term grows) — their "
        "ratio widens with the cluster.",
    )


def run_semi_naive_tc(num_vertices: int = 60, num_edges: int = 110,
                      seed: int = 17) -> SimpleReport:
    """Section 7.1: delta iterations evaluate recursion semi-naively.

    Transitive closure under naive (bulk) and semi-naive (delta)
    bottom-up evaluation: identical fixpoints, wildly different work.
    """
    import numpy as np
    from repro.algorithms import transitive_closure as tc

    rng = np.random.default_rng(seed)
    edges = list({
        (int(a), int(b))
        for a, b in zip(rng.integers(0, num_vertices, num_edges),
                        rng.integers(0, num_vertices, num_edges))
        if a != b
    })
    truth = tc.tc_reference(edges, num_vertices)

    rows = []
    results = {}
    for label, runner in (("naive (bulk iteration)", tc.tc_naive),
                          ("semi-naive (delta iteration)", tc.tc_semi_naive)):
        env = ExecutionEnvironment(bench_parallelism())
        start = time.perf_counter()
        results[label] = runner(env, edges)
        elapsed = time.perf_counter() - start
        rows.append([
            label, format_seconds(elapsed),
            env.iteration_summaries[0].supersteps,
            env.metrics.total_processed,
            env.metrics.records_shipped_remote,
            "yes" if results[label] == truth else "NO",
        ])
    return SimpleReport(
        f"Extension — naive vs semi-naive transitive closure "
        f"({num_vertices} vertices, {len(edges)} base facts, "
        f"{len(truth)} derived facts)",
        ["evaluation", "time", "supersteps", "records processed",
         "messages", "correct"],
        rows,
        "Shape check (Sec. 7.1): the delta iteration joins only the "
        "previous superstep's new facts — a semi-naive evaluator for free.",
    )


def run_modes_ablation(dataset: str = "wikipedia") -> SimpleReport:
    g = graph(dataset)
    parallelism = bench_parallelism()
    truth = cc.cc_ground_truth(g)
    rows = []
    for mode in ("superstep", "microstep", "async"):
        env = ExecutionEnvironment(parallelism)
        start = time.perf_counter()
        result = cc.cc_incremental(env, g, variant="match", mode=mode)
        elapsed = time.perf_counter() - start
        rows.append([
            mode, format_seconds(elapsed),
            len(env.metrics.iteration_log),
            env.metrics.solution_accesses,
            env.metrics.records_shipped_remote,
            "yes" if result == truth else "NO",
        ])
    return SimpleReport(
        f"Ablation — execution modes of the Match-variant CC on {dataset}",
        ["mode", "time", "supersteps/rounds", "solution accesses",
         "messages", "correct"],
        rows,
        "Shape check: all modes converge to the same fixpoint; async "
        "rounds are bounded-drain supersteps, so it needs more of them.",
    )

"""Shared workload configuration for the benchmark suite.

``REPRO_BENCH_SCALE`` (default 0) doubles every dataset's vertex count
per increment, letting the same harness run laptop-quick or overnight-
thorough.  ``REPRO_BENCH_PARALLELISM`` sets the simulated cluster width
(default 4, matching the paper's four machines).
"""

from __future__ import annotations

import os

from repro.graphs import load_dataset

#: datasets used by the PageRank comparison (Figure 7); the paper used
#: Wikipedia, Webbase, Twitter
PAGERANK_DATASETS = ("wikipedia", "webbase", "twitter")

#: datasets used by the Connected Components comparison (Figure 9)
CC_DATASETS = ("wikipedia", "hollywood", "twitter", "webbase")


def bench_scale() -> int:
    return int(os.environ.get("REPRO_BENCH_SCALE", "0"))


def bench_parallelism() -> int:
    return int(os.environ.get("REPRO_BENCH_PARALLELISM", "4"))


def graph(name: str):
    return load_dataset(name, scale=bench_scale())


def map_filter_pipeline(env, records: int):
    """A 5-operator map/filter chain the planner fuses end-to-end."""
    ds = env.generate_sequence(records, lambda i: (i, i & 1023))
    return (
        ds.map(lambda r: (r[0] + 1, r[1]))
        .filter(lambda r: r[1] != 7)
        .map(lambda r: (r[0], r[1] + 1))
        .map(lambda r: (r[0] ^ 5, r[1]))
        .filter(lambda r: r[0] % 5 != 0)
    )


def cc_chained(env, graph, max_iterations: int = 1_000):
    """Delta-iterative CC with a fusable chain on the dynamic path.

    The candidate path normalizes each propagated label and drops
    candidates that provably cannot improve (a vertex's label never
    exceeds its id), so every superstep re-runs a map→filter chain over
    the freshly produced workset.
    """
    vertices = env.from_iterable(
        ((v, v) for v in range(graph.num_vertices)), name="vertices"
    )
    edges = env.from_iterable(graph.edge_tuples(), name="edges")
    initial_workset = env.from_iterable(
        ((int(dst), src) for src, dst in graph.edge_tuples()),
        name="initial_candidates",
    )
    iteration = env.iterate_delta(
        vertices, initial_workset, key_fields=0,
        max_iterations=max_iterations, name="cc_chained",
    )

    def min_candidate(vid, candidates, stored):
        current = stored[0][1]
        best = min(candidate for (_v, candidate) in candidates)
        if best < current:
            yield (vid, best)

    delta = iteration.workset.cogroup(
        iteration.solution_set, 0, 0, min_candidate, name="update"
    )
    next_workset = (
        delta.join(edges, 0, 0, lambda d, e: (e[1], d[1]),
                   name="new_candidates")
        .map(lambda c: (c[0], c[1]), name="normalize")
        .filter(lambda c: c[1] < c[0], name="improving_only")
    )
    return iteration.close(
        delta, next_workset,
        should_replace=lambda new, old: new[1] < old[1],
        mode="superstep",
    )

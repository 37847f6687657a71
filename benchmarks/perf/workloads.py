"""The six workloads: seeded inputs, the job, and an engine-independent oracle.

A *job* is one call of ``Workload.job(env, inputs)``: it authors the
plan through the public API, runs it, and returns a Python result.
``Workload.reference(inputs)`` computes what that result must be without
touching the engine (union-find, numpy power iteration, plain dicts).

Input shaping.  Min-label Connected Components does work proportional
to how often each vertex's label improves, which depends on *where* the
smallest vertex id sits: on RMAT-13 the work per job moved by +-12 %
between seeds, and on the community chain the superstep count by +-20 %.
A seed would then look like a regression.  So after generating a graph
from the seed we swap vertex id 0 — the label every vertex of the main
component finally adopts — onto a structurally fixed spot (the largest
hub; one end of the chain).  The graph's shape, size and degree
distribution are untouched and still come from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.algorithms import connected_components as cc
from repro.algorithms import pagerank as pr
from repro.graphs import generators
from repro.graphs.graph import Graph

#: the host has 2 CPUs: one simulated process, or a pool of 2 workers
PARALLELISM = 2

#: RMAT scale of the main graph.  The issue's prototype used 14; the
#: benchmark contract allows ~25 s per run, so one scale step is dropped
#: (halves job time) as the issue prescribes
RMAT_SCALE = 13
RMAT_AVG_DEGREE = 15.7
#: a second step down for the two bulk workloads, whose every superstep
#: touches the whole graph: on the pool, jobs twice as short fit twice
#: as often into a quiet spell of the shared host (spread 10 % -> 6 %)
SMALL_RMAT_SCALE = RMAT_SCALE - 1
#: label 0 reaches the end of the tail this many hops from the hub, so
#: the superstep count does not depend on where the seed hangs the tail
TAIL_REACH = 10
CHAIN_COMMUNITIES = 60
CHAIN_COMMUNITY_SIZE = 80
SPILL_BUDGET_BYTES = 256 * 1024
PAGERANK_ITERATIONS = 10
ORDERS = 75_000
LINEITEMS_PER_ORDER = 4
DATE_RANGE = 2_000
#: the date filter keeps about half the orders
DATE_CUTOFF = DATE_RANGE // 2


# ----------------------------------------------------------------------
# input shaping


def bfs_levels(graph: Graph, source: int) -> np.ndarray:
    """Hop distance from ``source`` per vertex; ``-1`` where unreachable."""
    dist = np.full(graph.num_vertices, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        neighbours = np.unique(np.concatenate(
            [graph.neighbors(int(v)) for v in frontier]
        ))
        frontier = neighbours[dist[neighbours] < 0]
        dist[frontier] = level
    return dist


def with_min_id_at(graph: Graph, vertex: int) -> Graph:
    """The same graph with ids ``0`` and ``vertex`` swapped."""
    relabel = np.arange(graph.num_vertices, dtype=np.int64)
    relabel[0], relabel[vertex] = vertex, 0
    src = np.repeat(
        np.arange(graph.num_vertices, dtype=np.int64), np.diff(graph.indptr)
    )
    return Graph(
        graph.num_vertices,
        np.stack([relabel[src], relabel[graph.indices]], axis=1),
        name=graph.name,
    )


def rmat_with_tail(scale: int, seed: int) -> Graph:
    """RMAT core plus a straggler tail, min id on the largest hub."""
    core = generators.rmat(scale, RMAT_AVG_DEGREE, seed=seed,
                           name=f"rmat{scale}")
    hub = int(np.argmax(core.degrees()))
    # attach_tail picks the attachment vertex from its seed alone, so a
    # one-vertex tail reveals where a tail of any length will hang
    probe = generators.attach_tail(core, 1, seed=seed)
    attach = int(probe.neighbors(core.num_vertices)[0])
    hops = int(bfs_levels(core, hub)[attach])
    # hung off another component (hops -1) the tail converges on its own
    tail = TAIL_REACH - hops if 0 <= hops < TAIL_REACH - 2 else TAIL_REACH
    return with_min_id_at(
        generators.attach_tail(core, tail, seed=seed), hub
    )


def community_chain(seed: int) -> Graph:
    """Chained communities, min id at one end of the chain."""
    graph = generators.chained_communities(
        CHAIN_COMMUNITIES, CHAIN_COMMUNITY_SIZE, bridges=1, seed=seed,
        name="chain",
    )
    end = int(np.argmax(bfs_levels(graph, 0)))
    return with_min_id_at(graph, end)


def relational_tables(seed: int):
    """TPC-H Q3-shaped ``orders(okey, custkey, date)`` and
    ``lineitem(okey, cents, quantity)``; integer money keeps sums exact."""
    rng = np.random.default_rng(seed)
    order_keys = rng.permutation(ORDERS)
    orders = list(zip(
        order_keys.tolist(),
        rng.integers(0, ORDERS // 10, size=ORDERS).tolist(),
        rng.integers(0, DATE_RANGE, size=ORDERS).tolist(),
    ))
    count = ORDERS * LINEITEMS_PER_ORDER
    lineitems = list(zip(
        rng.integers(0, ORDERS, size=count).tolist(),
        rng.integers(100, 100_000, size=count).tolist(),
        rng.integers(1, 50, size=count).tolist(),
    ))
    return orders, lineitems


# ----------------------------------------------------------------------
# jobs and oracles


def _graph_records(graph: Graph) -> int:
    return graph.num_vertices + graph.num_edges


def _graph_sizes(graph: Graph) -> dict:
    return {"vertices": graph.num_vertices, "edges": graph.num_edges}


def _cc_delta(env, graph):
    return cc.cc_incremental(env, graph, variant="cogroup", mode="superstep")


def _cc_micro(env, graph):
    return cc.cc_incremental(env, graph, variant="match", mode="microstep")


def _pagerank(env, graph):
    return pr.pagerank_bulk(env, graph, iterations=PAGERANK_ITERATIONS,
                            plan="partition")


def _pagerank_reference(graph):
    return pr.pagerank_reference(graph, iterations=PAGERANK_ITERATIONS)


def _pagerank_matches(result, expected) -> bool:
    return result.keys() == expected.keys() and all(
        abs(result[v] - rank) <= 1e-9 for v, rank in expected.items()
    )


def _relational(env, tables):
    orders, lineitems = tables
    open_orders = env.from_iterable(orders, name="orders").filter(
        lambda o: o[2] < DATE_CUTOFF, name="before_cutoff", fields=(2,)
    )
    revenue = open_orders.join(
        env.from_iterable(lineitems, name="lineitem"), 0, 0,
        lambda o, l: (o[0], l[1] * l[2]), name="order_lines",
    ).with_forwarded_fields({0: 0})
    return dict(revenue.reduce_by_key(
        0, lambda a, b: (a[0], a[1] + b[1]), name="revenue"
    ).collect())


def _relational_reference(tables):
    orders, lineitems = tables
    kept = {okey for okey, _cust, date in orders if date < DATE_CUTOFF}
    revenue: dict[int, int] = {}
    for okey, cents, quantity in lineitems:
        if okey in kept:
            revenue[okey] = revenue.get(okey, 0) + cents * quantity
    return revenue


def _equal(result, expected) -> bool:
    return result == expected


@dataclass(frozen=True)
class Workload:
    """Why each exists is recorded next to its name in BENCHMARK.json."""

    name: str
    backend: str
    make_inputs: Callable[[int], object]
    job: Callable[[object, object], object]
    reference: Callable[[object], object]
    matches: Callable[[object, object], bool] = _equal
    input_records: Callable[[object], int] = _graph_records
    sizes: Callable[[object], dict] = _graph_sizes
    memory_budget_bytes: int | None = None


def _main_graph(seed):
    return rmat_with_tail(RMAT_SCALE, seed)


def _small_graph(seed):
    return rmat_with_tail(SMALL_RMAT_SCALE, seed)


WORKLOADS = {w.name: w for w in (
    Workload("cc-delta-sim", "simulated", _main_graph, _cc_delta,
             cc.cc_ground_truth),
    Workload("cc-micro-sim", "simulated", _main_graph, _cc_micro,
             cc.cc_ground_truth),
    Workload("pagerank-bulk-pool", "pool", _small_graph, _pagerank,
             _pagerank_reference, _pagerank_matches),
    Workload("cc-longtail-pool", "pool", community_chain, _cc_delta,
             cc.cc_ground_truth),
    Workload("cc-bulk-spill-sim", "simulated", _small_graph, cc.cc_bulk,
             cc.cc_ground_truth, memory_budget_bytes=SPILL_BUDGET_BYTES),
    Workload(
        "relational-sim", "simulated", relational_tables, _relational,
        _relational_reference,
        input_records=lambda tables: len(tables[0]) + len(tables[1]),
        sizes=lambda tables: {"orders": len(tables[0]),
                              "lineitems": len(tables[1])},
    ),
)}

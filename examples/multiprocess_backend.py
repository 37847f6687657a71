#!/usr/bin/env python3
"""Execution backends: the same plan on the simulator and real workers.

Runs Connected Components (delta iteration) and PageRank (bulk
iteration) twice each — once on the in-process simulator and once on
the multiprocess backend (a pool of one forked worker per partition,
forked for the job and closed after it; records cross partitions as
fabric frames) — and shows that results *and* logical
counters are identical while only the physical costs differ.

Run:  python examples/multiprocess_backend.py
"""

import time

from repro import ExecutionEnvironment
from repro.algorithms import connected_components as cc
from repro.algorithms import pagerank as pr
from repro.graphs import erdos_renyi

PARALLELISM = 4


def run_on(backend, workload):
    env = ExecutionEnvironment(PARALLELISM, backend=backend)
    started = time.perf_counter()
    result = workload(env)
    elapsed = time.perf_counter() - started
    return result, env.metrics, elapsed


def compare(name, workload):
    sim_result, sim_metrics, sim_s = run_on("simulated", workload)
    mp_result, mp_metrics, mp_s = run_on("multiprocess", workload)

    print(f"\n=== {name} ===")
    print(f"  results identical:        {sim_result == mp_result}")
    print(f"  messages (remote ships):  simulated={sim_metrics.messages}  "
          f"multiprocess={mp_metrics.messages}  "
          f"equal={sim_metrics.messages == mp_metrics.messages}")
    print(f"  supersteps:               simulated={sim_metrics.supersteps}  "
          f"multiprocess={mp_metrics.supersteps}  "
          f"equal={sim_metrics.supersteps == mp_metrics.supersteps}")
    print(f"  bytes serialized:         simulated="
          f"{sim_metrics.bytes_shipped}  "
          f"multiprocess={mp_metrics.bytes_shipped}")
    print(f"  wall clock:               simulated={sim_s:.2f}s  "
          f"multiprocess={mp_s:.2f}s")
    assert sim_result == mp_result
    assert sim_metrics.messages == mp_metrics.messages
    assert sim_metrics.supersteps == mp_metrics.supersteps


def main():
    graph = erdos_renyi(200, 3.0, seed=5)
    print(f"graph: {graph.num_vertices} vertices, {graph.num_edges} edges, "
          f"parallelism={PARALLELISM}")
    compare(
        "Connected Components (delta iteration)",
        lambda env: cc.cc_incremental(env, graph, variant="cogroup",
                                      mode="superstep"),
    )
    compare(
        "PageRank (bulk iteration, partition plan)",
        lambda env: pr.pagerank_bulk(env, graph, iterations=5,
                                     plan="partition"),
    )
    print("\nSame plans, same counters, same results — "
          "only the bytes and the clock differ.")


if __name__ == "__main__":
    main()

"""How many collectives one superstep costs.

On the pool every ``allreduce_sum`` and every ``route`` is a fabric
round trip, so the count per superstep is the iteration's fixed
overhead (ROADMAP item 2 wants to piggy-back the vote on the data
exchange).  Pinned here with a counting local context, whose
collectives are identities.

``test_delta_superstep_votes_once`` fails at the parent commit, where
the adaptive match probe allreduced the workset size a second time in
every superstep; the bulk test passes there and pins the other loop.
"""

import dataclasses

from repro import ExecutionEnvironment
from repro.algorithms import connected_components as cc
from repro.cluster.context import LocalCluster
from repro.optimizer import DEFAULT_WEIGHTS


class _CountingCluster(LocalCluster):
    def __init__(self):
        self.allreduces = 0
        self.routes = 0

    def allreduce_sum(self, value):
        self.allreduces += 1
        return value

    def route(self, frames):
        self.routes += 1
        return frames


def _counting_env(**settings):
    env = ExecutionEnvironment(parallelism=4, **settings)
    env.cluster = _CountingCluster()  # the executor's `env.cluster or LOCAL`
    return env


def _delta_cc(graph):
    # edges too big to replicate, as on the benchmark's graphs: the
    # constant edge table is hash-placed and the workset hash-probes it
    env = _counting_env(cost_weights=dataclasses.replace(
        DEFAULT_WEIGHTS, broadcast_limit=100.0
    ))
    result = cc.cc_incremental(
        env, graph, variant="cogroup", mode="superstep"
    )
    assert result == cc.cc_ground_truth(graph)
    assert env.metrics.supersteps > 2
    return env


def test_delta_superstep_votes_once(small_random):
    env = _delta_cc(small_random)
    # one workset vote ahead of every superstep, and the empty vote
    # that ends the iteration
    assert env.cluster.allreduces == env.metrics.supersteps + 1


def test_delta_superstep_routes_twice(small_random):
    env = _delta_cc(small_random)
    # the workset routes to the solution cogroup and the staged delta to
    # its solution-key partitions; the workset join hashes that delta on
    # the same key, so it keeps it where it is instead of routing it.
    # Before the loop the edge table, the initial solution set and the
    # initial workset route once each.
    assert env.cluster.routes == 2 * env.metrics.supersteps + 3


def test_bulk_superstep_with_termination_votes_once():
    env = _counting_env()
    start = env.from_iterable([(i, 6 + i) for i in range(8)], name="start")
    iteration = env.iterate_bulk(start, max_iterations=50, name="countdown")
    lowered = iteration.partial_solution.map(
        lambda r: (r[0], max(0, r[1] - 1)), name="lower"
    )
    still_positive = lowered.filter(lambda r: r[1] > 0, name="positive")
    result = iteration.close(lowered, termination=still_positive).collect()
    assert sorted(result) == [(i, 0) for i in range(8)]
    supersteps = env.metrics.supersteps
    assert supersteps == 13
    assert env.cluster.allreduces == supersteps

"""How many control collectives one superstep costs.

On the pool every ``allreduce_sum`` is a fabric round trip, so the count
per superstep is the iteration's fixed overhead (ROADMAP item 1 wants to
piggy-back it on the data exchange).  Pinned here with a counting local
context, whose collectives are identities.

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

    def allreduce_sum(self, value):
        self.allreduces += 1
        return value


def _counting_env(**settings):
    env = ExecutionEnvironment(parallelism=4, **settings)
    env.cluster = _CountingCluster()  # the executor's `env.cluster or LOCAL`
    return env


def test_delta_superstep_votes_once(small_random):
    # edges too big to replicate, as on the benchmark's graphs: the
    # constant edge table is hash-placed and the workset hash-probes it
    env = _counting_env(cost_weights=dataclasses.replace(
        DEFAULT_WEIGHTS, broadcast_limit=100.0
    ))
    result = cc.cc_incremental(
        env, small_random, variant="cogroup", mode="superstep"
    )
    assert result == cc.cc_ground_truth(small_random)
    supersteps = env.metrics.supersteps
    assert supersteps > 2
    # one workset vote ahead of every superstep, and the empty vote
    # that ends the iteration
    assert env.cluster.allreduces == supersteps + 1


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

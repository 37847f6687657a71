"""The ∪̇ delta's solution-key partitioning is a plan property.

A delta iteration stages each superstep's delta on the solution set's
partitions, and its body reads the staged delta back.  Both planners
know it: a consumer that hashes the delta on the solution key forwards
it instead, and the staging ship itself forwards when the delta already
arrives partitioned on that key.  A forward ship is only as good as the
partitioning it relies on, so the last tests pin two plans that must
not keep a layout: a partitioning on part of a join key, and a table a
microstep chain reads off its routing key.
"""

import dataclasses

import pytest

from repro import ExecutionEnvironment
from repro.algorithms import connected_components as cc
from repro.graphs import erdos_renyi
from repro.optimizer import DEFAULT_WEIGHTS
from repro.runtime.plan import BROADCAST, DELTA_SLOT, keep_on, partition_on

ON_ID = (0,)


def _cc_plan(variant, **settings):
    """CC's compiled superstep plan: ``(plan, {node name: node})``."""
    env = ExecutionEnvironment(parallelism=4, **settings)
    graph = erdos_renyi(60, 3.0, seed=1)
    result = cc.cc_incremental(env, graph, variant=variant,
                               mode="superstep")
    assert result == cc.cc_ground_truth(graph)
    plan = env.last_plan
    return plan, {node.name: node for node in plan.logical_plan.nodes()}


def _ships(plan, node):
    return plan.annotation(node).ship


@pytest.mark.parametrize("broadcast_limit", [
    # edges too big to replicate: only the edge table is hashed
    100.0,
    # the default: the edge table was replicated while the delta still
    # had to move; a delta that stays put makes hashing the (cached)
    # edge table the cheaper plan
    DEFAULT_WEIGHTS.broadcast_limit,
])
def test_optimizer_forwards_the_staged_delta(broadcast_limit):
    plan, nodes = _cc_plan("cogroup", cost_weights=dataclasses.replace(
        DEFAULT_WEIGHTS, broadcast_limit=broadcast_limit
    ))
    ships = _ships(plan, nodes["new_candidates"])
    assert ships == {0: keep_on(ON_ID), 1: partition_on(ON_ID)}
    assert "new_candidates: hash_build_right (in0=forward, " in (
        plan.describe()
    )


def test_naive_planner_forwards_the_staged_delta():
    plan, nodes = _cc_plan("cogroup", optimize=False)
    ships = _ships(plan, nodes["new_candidates"])
    assert ships[0] == keep_on(ON_ID)
    assert ships[1] == partition_on(ON_ID)
    # the naive planner knows no delta layout: it stages by hashing
    assert _ships(plan, nodes["cc_cogroup"])[DELTA_SLOT] == (
        partition_on(ON_ID)
    )


def test_cogroup_delta_is_staged_by_hashing():
    plan, nodes = _cc_plan("cogroup")
    ships = _ships(plan, nodes["cc_cogroup"])
    assert ships[0] == partition_on(ON_ID)
    assert ships[DELTA_SLOT] == partition_on(ON_ID)


def test_match_delta_is_staged_forward():
    # the update join forwards field 0 of a workset hashed on it, so the
    # delta arrives on the solution key's partitions already
    plan, nodes = _cc_plan("match")
    assert _ships(plan, nodes["cc_match"])[DELTA_SLOT] == keep_on(ON_ID)


def test_a_partitioning_on_part_of_a_join_key_is_not_kept():
    # the reduced side sits on the partitions of field 0, the other
    # side is hashed on fields (0, 1): forwarding the first would miss
    # most matching pairs
    env = ExecutionEnvironment(parallelism=4)
    pairs = [(k, j) for k in range(50) for j in range(7)]
    firsts = (
        env.from_iterable(pairs, name="firsts")
        .reduce_by_key(0, lambda a, b: a if a[1] <= b[1] else b)
        .with_forwarded_fields({0: 0, 1: 1})
    )
    joined = firsts.join(env.from_iterable(pairs, name="pairs"),
                         (0, 1), (0, 1), lambda a, b: a, name="joined")
    assert sorted(joined.collect()) == [(k, 0) for k in range(50)]
    assert env.last_plan.annotation(joined.node).ship == {
        0: partition_on((0, 1)), 1: partition_on((0, 1)),
    }


def _hops(optimize):
    """Hop counts from vertex 0 over a functional graph, by microsteps
    whose workset chain joins the constant table on the delta's field 1,
    not on the key that routed the delta."""
    env = ExecutionEnvironment(parallelism=4, optimize=optimize)
    it = env.iterate_delta(
        env.from_iterable([(v, 100) for v in range(40)], name="s0"),
        env.from_iterable([(0, 0)], name="w0"), 0, max_iterations=100,
    )
    delta = it.workset.join(
        it.solution_set, 0, 0,
        lambda c, s: c if c[1] < s[1] else None, name="update",
    ).with_forwarded_fields({0: 0, 1: 1})
    table = env.from_iterable([(v, (v * 7 + 3) % 40) for v in range(40)],
                              name="table")
    hops = delta.join(table, 1, 0, lambda d, t: (t[1], d[1] + 1),
                      name="hops")
    result = sorted(it.close(delta, hops, mode="microstep").collect())
    return result, env.last_plan.annotation(hops.node).ship


def test_naive_microstep_plan_replicates_an_off_route_table():
    # the microstep fix-up runs after the body is annotated, so the
    # defaults cannot undo it
    result, ships = _hops(optimize=False)
    assert ships[1] == BROADCAST
    assert result == _hops(optimize=True)[0]
    assert result[5] == (5, 7)

"""Naive (rule-based) planner: always-correct default strategies.

This is the no-optimizer baseline: hash-partition every keyed input,
build hash tables on the right join side, broadcast cross inputs, and
gather at sinks.  The cost-based optimizer produces the same annotation
structure with better choices; keeping this planner separate makes the
optimizer's improvements measurable (see the Figure 4 benchmark).
"""

from __future__ import annotations

from repro.dataflow.contracts import Contract
from repro.dataflow.graph import iteration_body_nodes
from repro.iterations.microstep import analyze_microstep
from repro.optimizer.properties import staged_partitionings
from repro.runtime.plan import (
    BROADCAST,
    DELTA_SLOT,
    ExecutionPlan,
    FORWARD,
    GATHER,
    LocalStrategy,
    keep_on,
    partition_on,
)


def annotate_node_naive(node, exec_plan):
    """Assign default strategies for one logical node."""
    ann = exec_plan.annotation(node)
    contract = node.contract
    if contract is Contract.SINK:
        ann.ship[0] = GATHER
    elif contract in (Contract.REDUCE, Contract.REDUCE_GROUP):
        ann.ship[0] = partition_on(node.key_fields[0])
        if contract is Contract.REDUCE:
            ann.local = LocalStrategy.HASH_AGGREGATE
            ann.combiner = node.combinable
    elif contract is Contract.MATCH:
        ann.ship[0] = partition_on(node.key_fields[0])
        ann.ship[1] = partition_on(node.key_fields[1])
        ann.local = LocalStrategy.HASH_BUILD_RIGHT
    elif contract in (Contract.COGROUP, Contract.INNER_COGROUP):
        ann.ship[0] = partition_on(node.key_fields[0])
        ann.ship[1] = partition_on(node.key_fields[1])
        ann.local = LocalStrategy.SORT_COGROUP
    elif contract is Contract.CROSS:
        ann.ship[0] = FORWARD
        ann.ship[1] = BROADCAST
        ann.local = LocalStrategy.NESTED_LOOP
    elif contract in (Contract.SOLUTION_JOIN, Contract.SOLUTION_COGROUP):
        ann.ship[0] = partition_on(node.key_fields[0])
        ann.local = (
            LocalStrategy.SOLUTION_PROBE
            if contract is Contract.SOLUTION_JOIN
            else LocalStrategy.SOLUTION_GROUP
        )
    elif contract is Contract.DELTA_ITERATION:
        ann.ship[0] = ann.ship[DELTA_SLOT] = partition_on(node.solution_key)
    else:
        for idx in range(len(node.inputs)):
            ann.ship[idx] = FORWARD
    return ann


def resolve_iteration_mode(node) -> str:
    """Resolve a delta iteration's execution mode ('auto' picks by analysis)."""
    if node.mode == "auto":
        report = analyze_microstep(node)
        return "microstep" if report.eligible else "superstep"
    return node.mode


def _keep_staged(exec_plan, iteration):
    """Forward what the body of ``iteration`` reads already partitioned
    on the key it would hash on (the staged delta, for one)."""
    staged = staged_partitionings(iteration)
    for node in iteration_body_nodes(iteration):
        ship = exec_plan.annotation(node).ship
        for idx, producer in enumerate(node.inputs):
            key = staged.get(producer.id)
            if key is not None and ship.get(idx) == partition_on(key):
                ship[idx] = keep_on(key)


def naive_plan(logical_plan, parallelism) -> ExecutionPlan:
    """Annotate every node (iteration bodies included) with defaults."""
    from repro.optimizer import _resolve_modes
    exec_plan = ExecutionPlan(logical_plan)
    nodes = logical_plan.nodes()
    for node in nodes:
        annotate_node_naive(node, exec_plan)
    for node in nodes:
        if node.contract is Contract.DELTA_ITERATION:
            _keep_staged(exec_plan, node)
    _resolve_modes(logical_plan, exec_plan)
    return exec_plan

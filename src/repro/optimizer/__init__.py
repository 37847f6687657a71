"""Cost-based optimizer gateway.

``optimize_plan`` enumerates physical alternatives (see
:mod:`repro.optimizer.enumerator`), picks the cheapest candidate per
sink, and materializes the winning choices into an
:class:`~repro.runtime.plan.ExecutionPlan`.  ``naive_plan`` (in
:mod:`repro.optimizer.naive`) provides the rule-based fallback used when
an environment is created with ``optimize=False``.
"""

from __future__ import annotations

from repro.dataflow.contracts import Contract
from repro.iterations.microstep import analyze_microstep
from repro.optimizer.costs import DEFAULT_WEIGHTS, CostWeights
from repro.optimizer.enumerator import Candidate, Enumerator
from repro.optimizer.naive import naive_plan, resolve_iteration_mode
from repro.optimizer.pushdown import plan_pushdown
from repro.optimizer.statistics import Statistics
from repro.runtime.plan import BROADCAST, ExecutionPlan, partition_on

__all__ = [
    "CostWeights",
    "DEFAULT_WEIGHTS",
    "naive_plan",
    "optimize_plan",
]


def session_weights(env) -> CostWeights:
    """The session's cost weights: explicit ``env.cost_weights``, else
    the defaults tuned to its data-plane batch size.

    The per-batch framing overhead amortizes over
    ``RuntimeConfig.batch_size``, so a record-at-a-time session
    (``batch_size=1``) prices every shipped record at the full
    per-frame cost while the default batched plane pays almost none.
    """
    import dataclasses

    if env.cost_weights:
        return env.cost_weights
    config = getattr(env, "config", None)
    if config is None:
        return DEFAULT_WEIGHTS
    if config.batch_size == int(DEFAULT_WEIGHTS.batch_size):
        return DEFAULT_WEIGHTS
    return dataclasses.replace(
        DEFAULT_WEIGHTS, batch_size=float(config.batch_size)
    )


def optimize_plan(logical_plan, env) -> ExecutionPlan:
    """Produce the cost-optimal execution plan for ``logical_plan``."""
    tracer = env.metrics.tracer
    if tracer is None:
        return _optimize_plan(logical_plan, env, None)
    with tracer.span("optimizer:plan", category="optimizer",
                     sinks=len(logical_plan.sinks)) as span:
        exec_plan = _optimize_plan(logical_plan, env, tracer)
        span.attributes["cost"] = exec_plan.estimated_cost
    return exec_plan


def _optimize_plan(logical_plan, env, tracer) -> ExecutionPlan:
    weights = session_weights(env)
    # measured truth from previous runs in this environment (optimizer v2)
    observer = getattr(env, "observer", None)
    if observer is not None:
        stats = Statistics(observed=observer.sizes,
                           selectivities=observer.selectivities)
    else:
        stats = Statistics()
    pushdown = plan_pushdown(logical_plan)
    enumerator = Enumerator(env.parallelism, weights, stats, tracer=tracer,
                            pushdown=pushdown)
    outer_nodes = _outer_region(logical_plan)
    enumerator.count_consumers(outer_nodes)

    exec_plan = ExecutionPlan(logical_plan)
    exec_plan.pushed_filters = dict(pushdown)
    total_cost = 0.0
    applied: set[int] = set()
    for sink in logical_plan.sinks:
        if tracer is not None:
            with tracer.span("optimizer:enumerate", category="optimizer",
                             sink=sink.name) as enum_span:
                candidates = list(enumerator.candidates(sink))
                enum_span.attributes["candidates"] = len(candidates)
        else:
            candidates = enumerator.candidates(sink)
        best = min(candidates, key=lambda c: c.cost)
        if tracer is not None:
            with tracer.span("optimizer:select", category="optimizer",
                             sink=sink.name, cost=best.cost):
                _apply_candidate(best, exec_plan, applied)
        else:
            _apply_candidate(best, exec_plan, applied)
        total_cost += best.cost
    exec_plan.estimated_cost = total_cost

    if tracer is not None:
        with tracer.span("optimizer:modes", category="optimizer"):
            _resolve_modes(logical_plan, exec_plan)
    else:
        _resolve_modes(logical_plan, exec_plan)
    return exec_plan


def _resolve_modes(logical_plan, exec_plan):
    for node in logical_plan.nodes():
        if node.contract is Contract.DELTA_ITERATION:
            mode = resolve_iteration_mode(node)
            exec_plan.iteration_modes[node.id] = mode
            if mode in ("microstep", "async"):
                _fixup_microstep(exec_plan, node)


def _outer_region(logical_plan):
    """Nodes of the outermost region (iteration bodies excluded)."""
    from repro.dataflow.graph import topological_order
    return topological_order(logical_plan.sinks)


def _apply_candidate(cand: Candidate, exec_plan: ExecutionPlan,
                     applied: set):
    if cand is None or cand.node.id in applied:
        return
    applied.add(cand.node.id)
    ann = exec_plan.annotation(cand.node)
    ann.local = cand.local
    ann.ship = dict(cand.ships)
    ann.combiner = cand.combiner
    for child in cand.children:
        _apply_candidate(child, exec_plan, applied)
    for _root, pick in cand.nested:
        _apply_candidate(pick, exec_plan, applied)


def _fixup_microstep(exec_plan: ExecutionPlan, iteration):
    """Force microstep-compatible strategies on the compiled chains.

    Per-element execution routes dynamic records through queues
    partitioned like the solution set.  A constant-side Match table may
    stay hash-partitioned on its own join key only when the dynamic
    record's join-key *value* provably determines its current partition
    — i.e. when the dynamic join fields coincide (through forwarded
    fields) with the fields that routed the record.  Otherwise the
    constant side must be replicated; constant cross inputs always are.
    """
    report = analyze_microstep(iteration)
    if not report.eligible:
        return
    # the fields that determine a record's partition on each chain
    route_fields = iteration.solution_key
    for op in report.chain_to_delta:
        if op.contract in (Contract.SOLUTION_JOIN, Contract.SOLUTION_COGROUP):
            route_fields = op.key_fields[0]
            break
    _fixup_chain(exec_plan, iteration, report.chain_to_delta, route_fields)
    _fixup_chain(exec_plan, iteration, report.chain_to_workset,
                 iteration.solution_key)


def _fixup_chain(exec_plan, iteration, chain, tracked_fields):
    from repro.iterations.microstep import _forward_fields

    chain_ids = {op.id for op in chain}
    dynamic_ids = chain_ids | {
        iteration.workset_placeholder.id,
        iteration.solution_placeholder.id,
        iteration.delta_output.id,
    }
    for op in chain:
        ann = exec_plan.annotation(op)
        if op.contract in (Contract.MATCH, Contract.CROSS):
            const_idx = _constant_input_index(op, chain_ids, iteration)
            dyn_idx = 1 - const_idx
            local_join = (
                op.contract is Contract.MATCH
                and tracked_fields is not None
                and op.key_fields[dyn_idx] == tracked_fields
            )
            if local_join:
                ann.ship[const_idx] = partition_on(op.key_fields[const_idx])
            else:
                ann.ship[const_idx] = BROADCAST
        # trace how the routing fields survive this operator's UDF
        if tracked_fields is not None:
            dyn_input = 0
            for idx, producer in enumerate(op.inputs):
                if producer.id in dynamic_ids:
                    dyn_input = idx
                    break
            tracked_fields = _forward_fields(op, dyn_input, tracked_fields)


def _constant_input_index(op, chain_ids, iteration) -> int:
    placeholders = {
        iteration.workset_placeholder.id,
        iteration.solution_placeholder.id,
        iteration.delta_output.id,
    }
    for idx, producer in enumerate(op.inputs):
        if producer.id not in chain_ids and producer.id not in placeholders:
            return idx
    return 1

"""Operator chain fusion: compile forward pipelines into fused drivers.

The paper's runtime pipelines record-wise operators and only
materializes at dams (Sections 3, 4.2); the node-at-a-time interpreter
instead materializes every operator's output into the memo and pays a
full forward ship per edge.  This planner recovers the pipelining:
after physical planning it walks the selected
:class:`~repro.runtime.plan.ExecutionPlan` and collapses *maximal runs*
of record-wise, forward-shipped operators (Map, FlatMap, Filter, Union
spines, and the per-record side of combinable Reduces) into
:class:`~repro.runtime.plan.FusedChain` entries that the executor runs
as single batch-at-a-time drivers (:mod:`repro.runtime.fusion`).

An edge ``producer → consumer`` is fused away only when every one of
the following holds, which is exactly what keeps fused execution
bitwise identical to unfused execution:

* both endpoints are chainable record-wise contracts (Map, FlatMap,
  Filter, Union);
* the edge ships ``FORWARD`` — any repartitioning, broadcast, or
  gather is a real channel and must stay one;
* the consumer has no *dam* on that input slot (a dam demands full
  materialization before consumption);
* the producer has exactly one consumer, counting sinks, iteration
  roots (body output, termination criterion, delta output, workset
  output), and plan sinks as consumers — a branch point ends a chain,
  and a node the executor references directly must keep its memo entry;
* both endpoints live in the same plan region with the same
  constant/dynamic data-path classification (Section 4.3) — a chain
  never straddles the caching boundary, so constant-path edge caching
  at the chain head's inputs keeps working unchanged;
* the surrounding delta iteration (if any) executes in ``superstep``
  mode — microstep and async bodies use the run pipeline of
  :func:`repro.iterations.microstep_runtime._compile_pipeline` instead.

A chain may additionally absorb the per-record combine pass of a
combinable Reduce tail: when the spine's sole consumer is a REDUCE
annotated with ``combiner=True``, the pre-shuffle partial aggregation
runs in-stream on the spine's output (the reduce itself still ships and
aggregates as an ordinary operator).

Fusion is unconditional.  It never changes results or logical
counters; it only removes memo entries, operator spans, and
forward-ship round trips for the interior of each chain.  Fused and
per-operator execution run the same record loop per contract
(:data:`repro.runtime.drivers.RECORD_KERNELS`).
"""

from __future__ import annotations

from repro.dataflow.contracts import Contract
from repro.dataflow.graph import dynamic_path_nodes, iteration_body_nodes
from repro.runtime.plan import FusedChain, ShipKind

#: contracts a chain spine may consist of: record-wise, forward-friendly
CHAINABLE_CONTRACTS = frozenset({
    Contract.MAP,
    Contract.FLAT_MAP,
    Contract.FILTER,
    Contract.UNION,
})

#: region key of the outermost plan region (no iteration, constant)
_OUTER_REGION = (None, False)

#: region key for nodes claimed by more than one iteration body — such
#: nodes never fuse (their consumer count is >1 anyway, but keeping the
#: key distinct makes the rule independent of counting)
_AMBIGUOUS_REGION = ("ambiguous",)


def iteration_roots(node):
    """The body nodes an iteration's executor references directly."""
    if node.contract is Contract.BULK_ITERATION:
        roots = [node.body_output]
        if node.termination is not None:
            roots.append(node.termination)
        return roots
    return [node.delta_output, node.workset_output]


def _classify_regions(logical_plan, exec_plan):
    """Per-node region keys plus the ids of never-fusable nodes.

    Returns ``(regions, unfusable)``: ``regions[node.id]`` is a
    ``(iteration id, is_dynamic)`` key (missing ids are outer-region),
    and ``unfusable`` holds ids that must not participate in any chain
    (microstep/async delta bodies, nodes shared between bodies).
    """
    regions: dict[int, tuple] = {}
    unfusable: set[int] = set()
    for node in logical_plan.nodes():
        if not node.is_iteration():
            continue
        if node.contract is Contract.DELTA_ITERATION:
            if exec_plan.iteration_modes[node.id] != "superstep":
                # per-record bodies keep the microstep pipeline compiler
                unfusable.update(n.id for n in iteration_body_nodes(node))
                continue
        dynamic = {n.id for n in dynamic_path_nodes(node)}
        for member in iteration_body_nodes(node):
            key = (node.id, member.id in dynamic)
            if regions.setdefault(member.id, key) != key:
                regions[member.id] = _AMBIGUOUS_REGION
    return regions, unfusable


def _consumer_counts(logical_plan):
    """Global consumer counts, including the executor's direct references.

    Every edge counts one consumer; iteration roots and plan sinks count
    an extra one because the executor evaluates them by name (a fused-away
    node must have its successor as its *only* reader).
    """
    counts: dict[int, int] = {}

    def bump(node):
        counts[node.id] = counts.get(node.id, 0) + 1

    for node in logical_plan.nodes():
        for producer in node.inputs:
            bump(producer)
        if node.is_iteration():
            for root in iteration_roots(node):
                bump(root)
    for sink in logical_plan.sinks:
        bump(sink)
    return counts


def _edge_fusable(exec_plan, consumer, idx, producer, counts, regions,
                  unfusable) -> bool:
    """True if the ``producer → consumer`` edge can be fused away."""
    if producer.contract not in CHAINABLE_CONTRACTS:
        return False
    if consumer.contract not in CHAINABLE_CONTRACTS:
        return False
    if producer.id in unfusable or consumer.id in unfusable:
        return False
    if counts.get(producer.id, 0) != 1:
        return False
    ann = exec_plan.annotation(consumer)
    if idx in ann.dams:
        return False
    if exec_plan.ship_strategy(consumer, idx).kind is not ShipKind.FORWARD:
        return False
    producer_region = regions.get(producer.id, _OUTER_REGION)
    consumer_region = regions.get(consumer.id, _OUTER_REGION)
    if producer_region is _AMBIGUOUS_REGION:
        return False
    return producer_region == consumer_region


def _combine_tail(exec_plan, tail, counts, regions, unfusable):
    """The combinable REDUCE absorbing ``tail``'s output in-stream, if any.

    The combiner branch of the executor evaluates the reduce's input
    *raw* (ships only the combined output), so the pre-combine edge is
    effectively forward regardless of the reduce's ship annotation —
    fusability needs only single-consumership, no dam, and matching
    region classification.
    """
    if tail.contract not in CHAINABLE_CONTRACTS:
        return None
    if tail.id in unfusable or counts.get(tail.id, 0) != 1:
        return None
    consumer = _sole_edge_consumer(exec_plan.logical_plan, tail)
    if consumer is None or consumer.contract is not Contract.REDUCE:
        return None
    ann = exec_plan.annotation(consumer)
    if not ann.combiner or 0 in ann.dams or consumer.id in unfusable:
        return None
    tail_region = regions.get(tail.id, _OUTER_REGION)
    if tail_region is _AMBIGUOUS_REGION:
        return None
    if tail_region != regions.get(consumer.id, _OUTER_REGION):
        return None
    return consumer


def _sole_edge_consumer(logical_plan, producer):
    """The unique node consuming ``producer`` through an edge, or None."""
    found = None
    for node in logical_plan.nodes():
        for inp in node.inputs:
            if inp.id == producer.id:
                if found is not None and found.id != node.id:
                    return None
                found = node
    return found


def plan_chains(exec_plan) -> None:
    """Annotate ``exec_plan`` with fused operator chains (in place).

    Populates :attr:`~repro.runtime.plan.ExecutionPlan.chains` (keyed by
    tail node id) and :attr:`~repro.runtime.plan.ExecutionPlan.fused_ids`
    (head and interior ids the executor must never evaluate directly).
    Idempotent on re-planning: previous chains are discarded first.
    """
    logical_plan = exec_plan.logical_plan
    exec_plan.chains = {}
    exec_plan.fused_ids = frozenset()

    counts = _consumer_counts(logical_plan)
    regions, unfusable = _classify_regions(logical_plan, exec_plan)

    # one fused successor per producer; a union with two fusable inputs
    # keeps only the lowest slot as its spine — the other side stays a
    # normally shipped tap
    links: dict[int, tuple] = {}  # producer id -> (consumer, input slot)
    has_spine: dict[int, int] = {}  # consumer id -> chosen spine slot
    nodes_by_id = {}
    for consumer in logical_plan.nodes():
        nodes_by_id[consumer.id] = consumer
        for idx, producer in enumerate(consumer.inputs):
            if consumer.id in has_spine:
                break
            if _edge_fusable(exec_plan, consumer, idx, producer, counts,
                             regions, unfusable):
                links[producer.id] = (consumer, idx)
                has_spine[consumer.id] = idx

    # maximal paths: walk forward from every head (a linked producer
    # that no fused edge feeds)
    chains: dict[int, FusedChain] = {}
    fused: set[int] = set()
    for producer_id, (first_consumer, first_idx) in links.items():
        if producer_id in has_spine:
            continue  # interior of a longer chain; its head walks it
        spine = [nodes_by_id[producer_id]]
        spine_inputs = []
        consumer, idx = first_consumer, first_idx
        while True:
            spine.append(consumer)
            spine_inputs.append(idx)
            nxt = links.get(consumer.id)
            if nxt is None:
                break
            consumer, idx = nxt
        combine = _combine_tail(exec_plan, spine[-1], counts, regions,
                                unfusable)
        chain = FusedChain(
            nodes=tuple(spine),
            spine_inputs=tuple(spine_inputs),
            combine_node=combine,
        )
        chains[chain.tail.id] = chain
        fused.update(node.id for node in spine)
        if combine is None:
            fused.discard(spine[-1].id)  # the tail keeps its identity

    # single-operator combine chains: a lone record-wise node whose sole
    # consumer is a combinable reduce still fuses away its memo entry
    for node in logical_plan.nodes():
        if node.contract not in CHAINABLE_CONTRACTS or node.id in fused:
            continue
        if node.id in links or node.id in has_spine:
            continue
        combine = _combine_tail(exec_plan, node, counts, regions, unfusable)
        if combine is None or combine.id in chains:
            continue
        chain = FusedChain(nodes=(node,), spine_inputs=(),
                           combine_node=combine)
        chains[combine.id] = chain
        fused.add(node.id)

    exec_plan.chains = chains
    exec_plan.fused_ids = frozenset(fused)

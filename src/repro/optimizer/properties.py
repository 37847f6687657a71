"""Physical data properties and interesting-property propagation.

Physical properties describe how a dataset is laid out across and within
partitions: hash-partitioned on some fields, fully replicated, and/or
sorted within each partition.  The optimizer tracks them to avoid
redundant shipping and sorting (Section 4.3).

*Interesting properties* (IPs) flow top-down: an operator that would
benefit from its input being partitioned or sorted on certain fields
announces that; the announcement is translated through producing
operators via their forwarded-field declarations, and finally serves as
a hint to create plan candidates that establish the property early —
ideally on the constant data path, where it is paid once (the left-hand
PageRank plan of Figure 4).  For iteration bodies, the paper's two-pass
scheme applies: IPs arriving at the partial-solution input ``I`` are fed
back to the body output ``O`` and propagated a second time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dataflow.contracts import Contract
from repro.dataflow.graph import map_fields_backward, map_fields_forward


@dataclass(frozen=True)
class PhysicalProps:
    """Layout of a dataset: partitioning and intra-partition sort order."""

    partitioned_on: tuple[int, ...] | None = None
    replicated: bool = False
    sorted_on: tuple[int, ...] | None = None

    def satisfies_partitioning(self, key_fields) -> bool:
        """True if records key-equal on ``key_fields`` are colocated.

        Hash partitioning on a subset of the key fields colocates every
        key group of the full key, so a subset suffices.  Replication
        trivially colocates everything.
        """
        if self.replicated:
            return True
        if self.partitioned_on is None:
            return False
        return set(self.partitioned_on).issubset(set(key_fields))

    def satisfies_sort(self, key_fields) -> bool:
        if self.sorted_on is None:
            return False
        prefix = self.sorted_on[: len(key_fields)]
        return prefix == tuple(key_fields)


NO_PROPS = PhysicalProps()
REPLICATED = PhysicalProps(replicated=True)


def staged_partitionings(iteration) -> dict:
    """``{node id: key fields}``: what ``iteration``'s body reads back
    hash-partitioned whatever its producer's plan.  A delta iteration
    stages its delta on the solution set's partitions for ∪̇, and its
    body reads the staged delta (Section 5.1).  Both planners take the
    fact from here."""
    if iteration.contract is Contract.DELTA_ITERATION:
        return {iteration.delta_output.id: iteration.solution_key}
    return {}


def props_through(node, input_index, props: PhysicalProps) -> PhysicalProps:
    """Properties of the node's output given one input's properties."""
    partitioned = None
    if props.partitioned_on is not None:
        partitioned = map_fields_forward(node, input_index, props.partitioned_on)
    sorted_on = None
    if props.sorted_on is not None:
        mapped = map_fields_forward(node, input_index, props.sorted_on)
        # sort order survives only order-preserving, record-at-a-time ops
        if mapped is not None and node.contract in (
            Contract.MAP, Contract.FLAT_MAP, Contract.FILTER,
        ):
            sorted_on = mapped
    return PhysicalProps(
        partitioned_on=partitioned,
        replicated=props.replicated and node.contract is Contract.FILTER,
        sorted_on=sorted_on,
    )


# ----------------------------------------------------------------------
# interesting properties


def required_partitionings(node) -> list[tuple[int, tuple[int, ...]]]:
    """(input index, fields) pairs the operator itself wants partitioned."""
    wants = []
    contract = node.contract
    if contract in (Contract.REDUCE, Contract.REDUCE_GROUP):
        wants.append((0, node.key_fields[0]))
    elif contract in (Contract.MATCH, Contract.COGROUP, Contract.INNER_COGROUP):
        wants.append((0, node.key_fields[0]))
        wants.append((1, node.key_fields[1]))
    elif contract in (Contract.SOLUTION_JOIN, Contract.SOLUTION_COGROUP):
        wants.append((0, node.key_fields[0]))
    return wants


def propagate_interesting_properties(nodes, seeds=None, passes=1,
                                     feedback=None):
    """Compute interesting partitionings per node output.

    ``nodes`` is the operator set (an iteration body or a whole plan
    region); ``seeds`` optionally maps node id -> set of field tuples
    interesting *at that node's output*.  ``feedback`` is an optional
    ``(placeholder_node, output_node)`` pair implementing the paper's
    two-pass iteration trick: after each pass, IPs that reached the
    placeholder's output are seeded onto the body output.

    Returns ``{node id: set of field tuples}`` — partitionings that some
    downstream consumer could exploit if established at that output.
    """
    by_id = {n.id: n for n in nodes}
    interesting: dict[int, set] = {nid: set() for nid in by_id}
    if seeds:
        for nid, fields in seeds.items():
            if nid in interesting:
                interesting[nid].update(fields)

    total_passes = passes + (1 if feedback is not None else 0)
    for pass_no in range(total_passes):
        order = _reverse_topological(nodes)
        for node in order:
            created = set(interesting[node.id])
            for input_index, fields in required_partitionings(node):
                producer = node.inputs[input_index]
                if producer.id in interesting:
                    interesting[producer.id].add(tuple(fields))
            # inherit: IPs at this node's output map backward to inputs
            for ip in created:
                for input_index, producer in enumerate(node.inputs):
                    if producer.id not in interesting:
                        continue
                    mapped = map_fields_backward(node, input_index, ip)
                    if mapped is not None:
                        interesting[producer.id].add(mapped)
        if feedback is not None:
            placeholder, output = feedback
            if placeholder.id in interesting and output.id in interesting:
                interesting[output.id].update(interesting[placeholder.id])
    return interesting


def _reverse_topological(nodes):
    from repro.dataflow.graph import topological_order
    by_id = {n.id: n for n in nodes}
    roots = [
        n for n in nodes
        if not any(
            n in other.inputs for other in nodes
        )
    ]
    order = []
    seen = set()
    for node in topological_order(roots or nodes):
        if node.id in by_id and node.id not in seen:
            seen.add(node.id)
            order.append(node)
    # include any stragglers (cyclic-free guarantee upstream)
    for node in nodes:
        if node.id not in seen:
            order.append(node)
    return list(reversed(order))

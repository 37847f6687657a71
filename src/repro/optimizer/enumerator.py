"""Volcano-style plan enumeration with iteration-aware costing.

For every operator the enumerator generates physical alternatives —
shipping strategies per input (forward / hash-partition / broadcast) and
local strategies (hash vs sort-merge join and build-side choice, hash vs
sort aggregation, combiners) — tracks the physical properties each
alternative establishes, and keeps a Pareto frontier of (cost,
properties) candidates per operator output.

Iteration bodies are enumerated in a nested context (Section 4.3): costs
of dynamic-data-path work are weighted by the expected superstep count,
while constant-path work (cached at the dynamic/constant boundary) is
paid once.  Interesting properties are propagated with the two-pass
feedback traversal, generating plan candidates that establish a
downstream-useful partitioning early on the constant path — this is what
makes the optimizer discover both PageRank plans of Figure 4.
"""

from __future__ import annotations

import dataclasses
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.common.errors import OptimizerError
from repro.dataflow.contracts import Contract
from repro.dataflow.graph import (
    dynamic_path_nodes,
    iteration_body_nodes,
    topological_order,
)
from repro.optimizer import costs
from repro.optimizer.properties import (
    NO_PROPS,
    PhysicalProps,
    REPLICATED,
    map_fields_forward,
    propagate_interesting_properties,
    props_through,
    staged_partitionings,
)
from repro.optimizer.statistics import Statistics
from repro.runtime.plan import (
    BROADCAST,
    DELTA_SLOT,
    FORWARD,
    GATHER,
    LocalStrategy,
    ShipKind,
    ShipStrategy,
    keep_on,
    partition_on,
)

_MAX_CANDIDATES = 8


@dataclass
class Candidate:
    """One physical alternative for an operator's output."""

    node: object
    props: PhysicalProps
    cost: float
    local: LocalStrategy = LocalStrategy.NONE
    ships: dict[int, ShipStrategy] = field(default_factory=dict)
    children: tuple = ()
    combiner: bool = False
    #: nested iteration-body plans: [(node, Candidate | annotation work)]
    nested: tuple = ()
    #: a delta output's ∪̇ staging ship (see :meth:`Enumerator._staged`)
    staging: ShipStrategy | None = None


def _prune(candidates: list[Candidate]) -> list[Candidate]:
    """Keep the Pareto frontier by (cost, properties), capped in size."""
    frontier: list[Candidate] = []
    for cand in sorted(candidates, key=lambda c: c.cost):
        dominated = any(
            other.cost <= cand.cost and _covers(other.props, cand.props)
            for other in frontier
        )
        if not dominated:
            frontier.append(cand)
        if len(frontier) >= _MAX_CANDIDATES:
            break
    return frontier


def _covers(a: PhysicalProps, b: PhysicalProps) -> bool:
    """True if properties ``a`` are at least as useful as ``b``."""
    if b.partitioned_on is not None and a.partitioned_on != b.partitioned_on:
        if not a.replicated:
            return False
    if b.replicated and not a.replicated:
        return False
    if b.sorted_on is not None and a.sorted_on != b.sorted_on:
        return False
    return True


class Enumerator:
    """Enumerates one plan region (the outer plan or an iteration body)."""

    def __init__(self, parallelism, weights, stats, interesting=None,
                 dynamic_ids=frozenset(), iteration_weight=1.0,
                 placeholder_props=None, tracer=None, pushdown=None,
                 staged=None):
        self.parallelism = parallelism
        self.weights = weights
        self.stats = stats
        self.interesting = interesting or {}
        self.dynamic_ids = dynamic_ids
        self.iteration_weight = iteration_weight
        self.placeholder_props = placeholder_props or {}
        self.tracer = tracer
        #: {match id: PushedFilter} from repro.optimizer.pushdown — the
        #: pushed side's records are filtered before shipping, so match
        #: costing discounts that side by the filter's selectivity
        self.pushdown = pushdown or {}
        #: see :func:`~repro.optimizer.properties.staged_partitionings`
        self.staged = staged or {}
        self._memo: dict[int, list[Candidate]] = {}
        self._consumer_counts: dict[int, int] = {}

    # ------------------------------------------------------------------

    def count_consumers(self, nodes):
        for node in nodes:
            for inp in node.inputs:
                self._consumer_counts[inp.id] = (
                    self._consumer_counts.get(inp.id, 0) + 1
                )

    def _node_weight(self, node) -> float:
        return self.iteration_weight if node.id in self.dynamic_ids else 1.0

    def _edge_weight(self, consumer, producer) -> float:
        """Shipping repeats every superstep only on dynamic→dynamic edges;
        constant→dynamic edges are cached after the first superstep."""
        if consumer.id not in self.dynamic_ids:
            return 1.0
        if producer.id in self.dynamic_ids or producer.is_placeholder():
            return self.iteration_weight
        return 1.0

    def _forward_overhead(self, consumer, producer, size) -> float:
        """Edge-weighted materialization overhead of one forward edge.

        Zero when chain fusion will collapse the edge: both endpoints
        record-wise, single consumer, and the same constant/dynamic
        classification — mirroring the fusability rule of
        :mod:`repro.optimizer.chaining` as far as this region can see.
        """
        from repro.optimizer.chaining import CHAINABLE_CONTRACTS
        if (
            producer.contract in CHAINABLE_CONTRACTS
            and consumer.contract in CHAINABLE_CONTRACTS
            and self._consumer_counts.get(producer.id, 0) <= 1
            and (consumer.id in self.dynamic_ids)
            == (producer.id in self.dynamic_ids)
        ):
            return 0.0
        return self._edge_weight(consumer, producer) * (
            costs.forward_edge_cost(size, self.weights)
        )

    # ------------------------------------------------------------------

    def candidates(self, node) -> list[Candidate]:
        cached = self._memo.get(node.id)
        if cached is not None:
            return cached
        cands = _prune(self._enumerate(node))
        if not cands:
            raise OptimizerError(f"no physical plan for {node.name}")
        key = self.staged.get(node.id)
        if key is not None:
            cands = _prune([self._staged(cand, key) for cand in cands])
        # Shared (multi-consumer) outputs are finalized to one choice so
        # different consumers cannot demand conflicting physical plans.
        if self._consumer_counts.get(node.id, 0) > 1:
            cands = [min(cands, key=lambda c: c.cost)]
        self._memo[node.id] = cands
        return cands

    def _staged(self, cand, key) -> Candidate:
        """``cand`` as the body reads it back: on the partitions of
        ``key``, put there every superstep by its staging ship."""
        staging, ship_c = self._ship_for(cand, key,
                                         self.stats.size(cand.node))
        return dataclasses.replace(
            cand, props=PhysicalProps(partitioned_on=key),
            cost=cand.cost + self.iteration_weight * ship_c, staging=staging,
        )

    def _enumerate(self, node) -> list[Candidate]:
        contract = node.contract
        if contract is Contract.SOURCE:
            return [Candidate(node, NO_PROPS, 0.0)]
        if node.is_placeholder():
            props = self.placeholder_props.get(node.id, NO_PROPS)
            return [Candidate(node, props, 0.0)]
        if contract is Contract.SINK:
            return self._enumerate_sink(node)
        if contract in (Contract.MAP, Contract.FLAT_MAP, Contract.FILTER):
            return self._enumerate_streaming(node)
        if contract is Contract.UNION:
            return self._enumerate_union(node)
        if contract in (Contract.REDUCE, Contract.REDUCE_GROUP):
            return self._enumerate_reduce(node)
        if contract is Contract.MATCH:
            return self._enumerate_match(node)
        if contract in (Contract.COGROUP, Contract.INNER_COGROUP):
            return self._enumerate_cogroup(node)
        if contract is Contract.CROSS:
            return self._enumerate_cross(node)
        if contract in (Contract.SOLUTION_JOIN, Contract.SOLUTION_COGROUP):
            return self._enumerate_solution_access(node)
        if contract in (Contract.BULK_ITERATION, Contract.DELTA_ITERATION):
            return self._enumerate_iteration(node)
        raise OptimizerError(f"cannot enumerate contract {contract.value}")

    # ------------------------------------------------------------------
    # per-contract enumeration

    def _enumerate_sink(self, node):
        out = []
        size = self.stats.size(node.inputs[0])
        for child in self.candidates(node.inputs[0]):
            cost = child.cost + costs.ship_cost(
                ShipKind.GATHER, size, self.parallelism, self.weights
            )
            out.append(Candidate(node, NO_PROPS, cost,
                                 ships={0: GATHER}, children=(child,)))
        return out

    def _enumerate_streaming(self, node):
        out = []
        size = self.stats.size(node.inputs[0])
        weight = self._node_weight(node)
        edge_overhead = self._forward_overhead(node, node.inputs[0], size)
        for child in self.candidates(node.inputs[0]):
            props = props_through(node, 0, child.props)
            cost = (
                child.cost + edge_overhead
                + weight * costs.streaming_cost(size, self.weights)
            )
            out.append(Candidate(node, props, cost,
                                 ships={0: FORWARD}, children=(child,)))
        return out

    def _enumerate_union(self, node):
        out = []
        weight = self._node_weight(node)
        size = self.stats.size(node)
        edge_overhead = self._forward_overhead(
            node, node.inputs[0], self.stats.size(node.inputs[0])
        ) + self._forward_overhead(
            node, node.inputs[1], self.stats.size(node.inputs[1])
        )
        for lc in self.candidates(node.inputs[0]):
            for rc in self.candidates(node.inputs[1]):
                if (
                    lc.props.partitioned_on is not None
                    and lc.props.partitioned_on == rc.props.partitioned_on
                ):
                    props = PhysicalProps(partitioned_on=lc.props.partitioned_on)
                else:
                    props = NO_PROPS
                cost = (
                    lc.cost + rc.cost + edge_overhead
                    + weight * costs.streaming_cost(size, self.weights)
                )
                out.append(Candidate(node, props, cost,
                                     ships={0: FORWARD, 1: FORWARD},
                                     children=(lc, rc)))
        return out

    def _enumerate_reduce(self, node):
        out = []
        key = node.key_fields[0]
        producer = node.inputs[0]
        in_size = self.stats.size(producer)
        out_size = self.stats.size(node)
        weight = self._node_weight(node)
        edge_weight = self._edge_weight(node, producer)
        combinable = node.contract is Contract.REDUCE and node.combinable
        for child in self.candidates(producer):
            options = []
            if child.props.satisfies_partitioning(key):
                options.append((keep_on(child.props.partitioned_on), 0.0,
                                in_size, False))
            if combinable:
                # a combiner emits at most one record per key per
                # partition: min(half the input, |output| per partition)
                shipped_size = min(in_size * 0.5,
                                   out_size * self.parallelism)
            else:
                shipped_size = in_size
            ship_c = costs.ship_cost(
                ShipKind.PARTITION_HASH, shipped_size, self.parallelism,
                self.weights,
            )
            if combinable:
                # the pre-shuffle combine pass touches the full input
                ship_c += costs.hash_build_cost(in_size, self.weights)
            options.append((partition_on(key), ship_c, shipped_size, combinable))
            for ship, ship_c, local_size, use_combiner in options:
                agg_base = child.cost + edge_weight * ship_c
                # hash aggregation
                hash_cost = agg_base + weight * (
                    costs.hash_build_cost(local_size, self.weights)
                )
                out.append(Candidate(
                    node,
                    PhysicalProps(partitioned_on=key),
                    hash_cost,
                    local=LocalStrategy.HASH_AGGREGATE,
                    ships={0: ship},
                    children=(child,),
                    combiner=use_combiner,
                ))
                if node.contract is Contract.REDUCE:
                    sort_c = 0.0
                    if not (ship.kind is ShipKind.FORWARD
                            and child.props.satisfies_sort(key)):
                        sort_c = costs.sort_cost(
                            local_size, self.parallelism, self.weights
                        )
                    out.append(Candidate(
                        node,
                        PhysicalProps(partitioned_on=key, sorted_on=key),
                        agg_base + weight * (
                            sort_c + costs.streaming_cost(local_size, self.weights)
                        ),
                        local=LocalStrategy.SORT_AGGREGATE,
                        ships={0: ship},
                        children=(child,),
                        combiner=use_combiner,
                    ))
        return out

    def _join_output_props(self, node, lprops, rprops, probe_side=None):
        """Map surviving input partitionings to the join output."""
        partitioned = None
        if lprops.partitioned_on is not None:
            partitioned = map_fields_forward(node, 0, lprops.partitioned_on)
        if partitioned is None and rprops.partitioned_on is not None:
            partitioned = map_fields_forward(node, 1, rprops.partitioned_on)
        sorted_on = None
        if probe_side is not None:
            probe_props = (lprops, rprops)[probe_side]
            if probe_props.sorted_on is not None:
                sorted_on = map_fields_forward(
                    node, probe_side, probe_props.sorted_on
                )
        return PhysicalProps(partitioned_on=partitioned, sorted_on=sorted_on)

    def _enumerate_match(self, node):
        out = []
        lkey, rkey = node.key_fields
        lsize = self.stats.size(node.inputs[0])
        rsize = self.stats.size(node.inputs[1])
        pushed = self.pushdown.get(node.id)
        if pushed is not None:
            # a pushed-down filter thins this side before it ships
            selectivity = self.stats.filter_selectivity(pushed.filter_node)
            if pushed.side == 0:
                lsize *= selectivity
            else:
                rsize *= selectivity
        weight = self._node_weight(node)
        for lc in self.candidates(node.inputs[0]):
            for rc in self.candidates(node.inputs[1]):
                out.extend(self._match_partitioned(
                    node, lc, rc, lkey, rkey, lsize, rsize, weight))
                out.extend(self._match_broadcast(
                    node, lc, rc, lkey, rkey, lsize, rsize, weight,
                    broadcast_side=0))
                out.extend(self._match_broadcast(
                    node, lc, rc, lkey, rkey, lsize, rsize, weight,
                    broadcast_side=1))
        return out

    def _ship_for(self, child, key, size):
        """(strategy, cost) to make ``child`` partitioned on ``key``.

        On all of ``key``: the other input, or the solution set, sits
        on the partitions of its whole key, where a partitioning on a
        subset of the fields does not put equal keys."""
        if child.props.replicated or child.props.partitioned_on == key:
            return keep_on(child.props.partitioned_on), 0.0
        return partition_on(key), costs.ship_cost(
            ShipKind.PARTITION_HASH, size, self.parallelism, self.weights
        )

    def _match_partitioned(self, node, lc, rc, lkey, rkey, lsize, rsize,
                           weight):
        lship, lcost = self._ship_for(lc, lkey, lsize)
        rship, rcost = self._ship_for(rc, rkey, rsize)
        lw = self._edge_weight(node, node.inputs[0])
        rw = self._edge_weight(node, node.inputs[1])
        base = lc.cost + rc.cost + lw * lcost + rw * rcost
        lprops = PhysicalProps(partitioned_on=lkey)
        rprops = PhysicalProps(partitioned_on=rkey)
        if lship.kind is ShipKind.FORWARD:
            lprops = lc.props
        if rship.kind is ShipKind.FORWARD:
            rprops = rc.props
        results = []
        for local, extra, probe_side in self._join_locals(
            node, lsize, rsize, lprops, rprops, weight, lw, rw
        ):
            results.append(Candidate(
                node,
                self._join_output_props(node, lprops, rprops, probe_side),
                base + extra,
                local=local,
                ships={0: lship, 1: rship},
                children=(lc, rc),
            ))
        return results

    def _match_broadcast(self, node, lc, rc, lkey, rkey, lsize, rsize,
                         weight, broadcast_side):
        """Broadcast one side; the other side may establish an interesting
        partitioning instead of staying put (the Figure 4 left plan)."""
        bc_child, other_child = (lc, rc) if broadcast_side == 0 else (rc, lc)
        bc_size = lsize if broadcast_side == 0 else rsize
        if bc_size > self.weights.broadcast_limit:
            return []  # the replica would not fit in one node's memory
        other_size = rsize if broadcast_side == 0 else lsize
        other_side = 1 - broadcast_side
        bc_producer = node.inputs[broadcast_side]
        other_producer = node.inputs[other_side]
        bw = self._edge_weight(node, bc_producer)
        ow = self._edge_weight(node, other_producer)
        bc_cost = costs.ship_cost(
            ShipKind.BROADCAST, bc_size, self.parallelism, self.weights
        )
        # options for the non-broadcast side: keep layout, or establish an
        # interesting partitioning announced by downstream consumers
        other_options = [(FORWARD, 0.0, other_child.props)]
        for ip in self.interesting.get(other_producer.id, ()):
            if other_child.props.satisfies_partitioning(ip):
                continue
            other_options.append((
                partition_on(ip),
                costs.ship_cost(ShipKind.PARTITION_HASH, other_size,
                                self.parallelism, self.weights),
                PhysicalProps(partitioned_on=tuple(ip)),
            ))
        build_broadcast = (
            LocalStrategy.HASH_BUILD_LEFT if broadcast_side == 0
            else LocalStrategy.HASH_BUILD_RIGHT
        )
        build_other = (
            LocalStrategy.HASH_BUILD_LEFT if other_side == 0
            else LocalStrategy.HASH_BUILD_RIGHT
        )
        results = []
        for oship, ocost, oprops in other_options:
            bc_props = REPLICATED
            lprops = bc_props if broadcast_side == 0 else oprops
            rprops = oprops if broadcast_side == 0 else bc_props
            ships = {broadcast_side: BROADCAST, other_side: oship}
            # Orientation 1 — build over the replica, probe the resident
            # side.  The replicated build table is cached across
            # supersteps when the broadcast side is constant (bw == 1);
            # a dynamic side is re-broadcast and re-built every
            # superstep (bw == weight).
            base = (
                lc.cost + rc.cost + bw * bc_cost + ow * ocost
                + bw * costs.hash_build_cost(bc_size * self.parallelism,
                                             self.weights)
                + weight * costs.probe_cost(other_size, self.weights)
            )
            results.append(Candidate(
                node,
                self._join_output_props(node, lprops, rprops,
                                        probe_side=other_side),
                base,
                local=build_broadcast,
                ships=ships,
                children=(lc, rc),
            ))
            # Orientation 2 — build over the resident side, probe the
            # replica.  Every match pair is still emitted exactly once
            # (each resident record lives in one partition), and a small
            # *dynamic* probe side meets a constant build table that is
            # built once and cached.
            base = (
                lc.cost + rc.cost + bw * bc_cost + ow * ocost
                + ow * costs.hash_build_cost(other_size, self.weights)
                + weight * costs.probe_cost(bc_size * self.parallelism,
                                            self.weights)
            )
            results.append(Candidate(
                node,
                self._join_output_props(node, lprops, rprops,
                                        probe_side=broadcast_side),
                base,
                local=build_other,
                ships=ships,
                children=(lc, rc),
            ))
        return results

    def _join_locals(self, node, lsize, rsize, lprops, rprops, weight,
                     lweight=None, rweight=None):
        """(local strategy, extra cost, probe side) options for a join.

        ``lweight``/``rweight`` are the edge weights of the two inputs:
        the executor caches hash tables built over constant inputs
        across supersteps (Section 4.3), so a constant build side pays
        its build cost once (edge weight 1) while probing repeats every
        superstep.  Sort-merge has no such cache, so it pays per
        superstep on the dynamic path.
        """
        lweight = weight if lweight is None else lweight
        rweight = weight if rweight is None else rweight
        options = [
            (
                LocalStrategy.HASH_BUILD_LEFT,
                lweight * costs.hash_build_cost(lsize, self.weights)
                + weight * costs.probe_cost(rsize, self.weights),
                1,
            ),
            (
                LocalStrategy.HASH_BUILD_RIGHT,
                rweight * costs.hash_build_cost(rsize, self.weights)
                + weight * costs.probe_cost(lsize, self.weights),
                0,
            ),
        ]
        lsort = 0.0 if lprops.satisfies_sort(node.key_fields[0]) else (
            costs.sort_cost(lsize, self.parallelism, self.weights))
        rsort = 0.0 if rprops.satisfies_sort(node.key_fields[1]) else (
            costs.sort_cost(rsize, self.parallelism, self.weights))
        options.append((
            LocalStrategy.SORT_MERGE,
            weight * (lsort + rsort
                      + costs.streaming_cost(lsize + rsize, self.weights)),
            None,
        ))
        return options

    def _enumerate_cogroup(self, node):
        out = []
        lkey, rkey = node.key_fields
        lsize = self.stats.size(node.inputs[0])
        rsize = self.stats.size(node.inputs[1])
        weight = self._node_weight(node)
        for lc in self.candidates(node.inputs[0]):
            for rc in self.candidates(node.inputs[1]):
                lship, lcost = self._ship_for(lc, lkey, lsize)
                rship, rcost = self._ship_for(rc, rkey, rsize)
                lw = self._edge_weight(node, node.inputs[0])
                rw = self._edge_weight(node, node.inputs[1])
                cost = (
                    lc.cost + rc.cost + lw * lcost + rw * rcost
                    + weight * (
                        costs.sort_cost(lsize + rsize, self.parallelism,
                                        self.weights)
                    )
                )
                out.append(Candidate(
                    node,
                    PhysicalProps(partitioned_on=None),
                    cost,
                    local=LocalStrategy.SORT_COGROUP,
                    ships={0: lship, 1: rship},
                    children=(lc, rc),
                ))
        return out

    def _enumerate_cross(self, node):
        out = []
        lsize = self.stats.size(node.inputs[0])
        rsize = self.stats.size(node.inputs[1])
        weight = self._node_weight(node)
        pair_cost = weight * costs.streaming_cost(lsize * rsize, self.weights)
        for lc in self.candidates(node.inputs[0]):
            for rc in self.candidates(node.inputs[1]):
                for bc_side in (0, 1):
                    bc_size = lsize if bc_side == 0 else rsize
                    if (
                        bc_size > self.weights.broadcast_limit
                        and min(lsize, rsize) <= self.weights.broadcast_limit
                    ):
                        continue  # replicate the side that fits instead
                    bw = self._edge_weight(node, node.inputs[bc_side])
                    cost = (
                        lc.cost + rc.cost
                        + bw * costs.ship_cost(
                            ShipKind.BROADCAST, bc_size, self.parallelism,
                            self.weights,
                        )
                        + pair_cost
                    )
                    ships = {bc_side: BROADCAST, 1 - bc_side: FORWARD}
                    out.append(Candidate(
                        node, NO_PROPS, cost,
                        local=LocalStrategy.NESTED_LOOP,
                        ships=ships, children=(lc, rc),
                    ))
        return out

    def _enumerate_solution_access(self, node):
        out = []
        key = node.key_fields[0]
        producer = node.inputs[0]
        size = self.stats.size(producer)
        weight = self._node_weight(node)
        edge_weight = self._edge_weight(node, producer)
        local = (
            LocalStrategy.SOLUTION_PROBE
            if node.contract is Contract.SOLUTION_JOIN
            else LocalStrategy.SOLUTION_GROUP
        )
        for child in self.candidates(producer):
            ship, ship_c = self._ship_for(child, key, size)
            props_in = (
                child.props if ship.kind is ShipKind.FORWARD
                else PhysicalProps(partitioned_on=key)
            )
            cost = (
                child.cost + edge_weight * ship_c
                + weight * costs.probe_cost(size, self.weights)
            )
            partitioned = map_fields_forward(node, 0, key)
            out.append(Candidate(
                node,
                PhysicalProps(partitioned_on=partitioned),
                cost,
                local=local,
                ships={0: ship},
                children=(child, None),
            ))
        return out

    # ------------------------------------------------------------------
    # iterations: nested enumeration (Section 4.3)

    def _enumerate_iteration(self, node):
        input_cands = [self.candidates(inp) for inp in node.inputs]
        best_inputs = [min(cands, key=lambda c: c.cost) for cands in input_cands]
        span = nullcontext() if self.tracer is None else self.tracer.span(
            "optimizer:body", category="optimizer", iteration=node.name,
        )
        with span:
            body_plans, body_cost, out_props = _optimize_body(
                node, self.parallelism, self.weights, self.stats,
                tracer=self.tracer,
            )
        total = sum(c.cost for c in best_inputs) + body_cost
        ships = {}
        if node.contract is Contract.DELTA_ITERATION:
            out_props = PhysicalProps(partitioned_on=node.solution_key)
            delta = next(pick for root, pick in body_plans
                         if root is node.delta_output)
            ships = {0: partition_on(node.solution_key),
                     DELTA_SLOT: delta.staging}
        return [Candidate(
            node, out_props, total,
            ships=ships, children=tuple(best_inputs),
            nested=tuple(body_plans),
        )]


def _optimize_body(iteration, parallelism, weights, outer_stats,
                   tracer=None):
    """Optimize an iteration's step function in a nested context.

    Returns ``(list of (node, Candidate) picks, body cost, output props)``.
    """
    body = iteration_body_nodes(iteration)
    dynamic = {n.id for n in dynamic_path_nodes(iteration)}
    expected = min(float(iteration.max_iterations),
                   weights.expected_iterations)

    if iteration.contract is Contract.BULK_ITERATION:
        roots = [iteration.body_output]
        if iteration.termination is not None:
            roots.append(iteration.termination)
        feedback = (iteration.placeholder, iteration.body_output)
        placeholder_sizes = {
            iteration.placeholder.id: outer_stats.size(iteration.inputs[0]),
        }
    else:
        roots = [iteration.delta_output, iteration.workset_output]
        feedback = (iteration.workset_placeholder, iteration.workset_output)
        placeholder_sizes = {
            iteration.solution_placeholder.id:
                outer_stats.size(iteration.inputs[0]),
            iteration.workset_placeholder.id:
                outer_stats.size(iteration.inputs[1]),
        }

    # observed cardinalities thread through by *name*; body nodes are
    # never ingested by the observer, but constant-path chains shared
    # with the outer program keep their measured sizes
    stats = Statistics(
        placeholder_sizes=placeholder_sizes,
        observed=outer_stats.observed,
        selectivities=outer_stats.selectivities,
    )
    interesting = propagate_interesting_properties(
        body, feedback=feedback
    )
    enumerator = Enumerator(
        parallelism, weights, stats,
        interesting=interesting,
        dynamic_ids=dynamic,
        iteration_weight=expected,
        tracer=tracer,
        staged=staged_partitionings(iteration),
    )
    enumerator.count_consumers(body)

    picks = []
    total = 0.0
    out_props = NO_PROPS
    for root in roots:
        best = min(enumerator.candidates(root), key=lambda c: c.cost)
        picks.append((root, best))
        total += best.cost
        if iteration.contract is Contract.BULK_ITERATION and (
            root is iteration.body_output
        ):
            out_props = best.props
    return picks, total, out_props

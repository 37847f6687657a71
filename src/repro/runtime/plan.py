"""Physical execution plan: shipping and local strategies per operator.

The optimizer (or the naive default planner) annotates every logical edge
with a :class:`ShipStrategy` and every operator with a
:class:`LocalStrategy`.  The executor interprets these annotations; it
never makes strategy decisions itself, which keeps the optimizer's choices
testable end to end (e.g. the two PageRank plans of Figure 4 are two
different annotation sets over the same logical plan).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class ShipKind(enum.Enum):
    """How records travel from a producer to a consumer's input slot."""

    FORWARD = "forward"              # stay in the producing partition
    PARTITION_HASH = "partition_hash"  # hash-partition on key fields
    BROADCAST = "broadcast"          # replicate to every partition
    GATHER = "gather"                # collect into partition 0 (sinks)


@dataclass(frozen=True)
class ShipStrategy:
    """A hash ship's ``key_fields`` pick each record's target; a forward
    ship's, if any, name the partitioning its producer already has."""

    kind: ShipKind
    key_fields: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind is ShipKind.PARTITION_HASH and not self.key_fields:
            raise ValueError("hash partitioning requires key fields")

    def describe(self) -> str:
        if self.kind is ShipKind.PARTITION_HASH:
            return f"partition{list(self.key_fields)}"
        return self.kind.value


FORWARD = ShipStrategy(ShipKind.FORWARD)
BROADCAST = ShipStrategy(ShipKind.BROADCAST)
GATHER = ShipStrategy(ShipKind.GATHER)


def partition_on(key_fields) -> ShipStrategy:
    return ShipStrategy(ShipKind.PARTITION_HASH, tuple(key_fields))


def keep_on(key_fields) -> ShipStrategy:
    """A FORWARD ship out of a producer hash-partitioned on ``key_fields``."""
    return ShipStrategy(ShipKind.FORWARD, key_fields)


#: a delta iteration's ship slot that stages each superstep's delta on
#: the solution set's partitions for ∪̇ (slot 0 places S0 there)
DELTA_SLOT = 2


class LocalStrategy(enum.Enum):
    """Per-partition algorithm implementing the operator."""

    NONE = "none"                    # streaming record-at-a-time
    HASH_BUILD_LEFT = "hash_build_left"
    HASH_BUILD_RIGHT = "hash_build_right"
    SORT_MERGE = "sort_merge"
    HASH_AGGREGATE = "hash_aggregate"
    SORT_AGGREGATE = "sort_aggregate"
    SORT_COGROUP = "sort_cogroup"
    NESTED_LOOP = "nested_loop"      # cross product
    SOLUTION_PROBE = "solution_probe"    # stateful index probe (Sec. 5.3)
    SOLUTION_GROUP = "solution_group"    # group workset, then probe index


@dataclass
class OperatorAnnotation:
    """All physical choices for one logical operator."""

    local: LocalStrategy = LocalStrategy.NONE
    ship: dict[int, ShipStrategy] = field(default_factory=dict)
    #: apply the combinable REDUCE UDF before shipping (Sec. 6.1 combiners)
    combiner: bool = False
    #: materialize this operator's output once and reuse across supersteps
    #: (constant-data-path cache, Section 4.3)
    cache_across_iterations: bool = False
    #: this input edge must fully materialize before consumption (dam)
    dams: set[int] = field(default_factory=set)


@dataclass(frozen=True)
class FusedChain:
    """A maximal run of record-wise operators executed as one driver.

    ``nodes`` is the chain's *spine* in producer→consumer order: each
    member is a MAP, FLAT_MAP, FILTER, or UNION node whose fused input
    is fed directly by the previous spine member instead of through the
    memo and a forward ship.  ``spine_inputs[i]`` names which input slot
    of ``nodes[i]`` the spine feeds (always ``0`` for unary operators;
    for a UNION it is the fused side — the other side, the *tap*, is
    shipped normally).  ``combine_node``, when set, is a combinable
    REDUCE whose per-record combine pass consumes the spine's output
    in-stream (Sec. 6.1 combiners); the reduce itself still runs as an
    ordinary operator on the combined partitions.

    The chain is keyed in :attr:`ExecutionPlan.chains` by its *tail* —
    ``combine_node`` when present, else ``nodes[-1]`` — because that is
    the node whose evaluation triggers the fused run.  Every other
    spine id appears in :attr:`ExecutionPlan.fused_ids`: those nodes
    never get memo entries, operator spans, or ship calls of their own.
    """

    nodes: tuple  # tuple[LogicalNode, ...], producer→consumer order
    spine_inputs: tuple[int, ...]  # per nodes[i>0]: input slot fed by spine
    combine_node: object | None = None  # combinable REDUCE tail, if fused

    def __post_init__(self):
        if len(self.spine_inputs) != len(self.nodes) - 1:
            raise ValueError(
                "spine_inputs must name one input slot per non-head spine "
                f"node: {len(self.nodes)} nodes, "
                f"{len(self.spine_inputs)} slots"
            )
        if len(self.nodes) < 2 and self.combine_node is None:
            raise ValueError("a fused chain needs at least two operators")

    @property
    def tail(self):
        """The node whose evaluation runs the whole chain."""
        return self.combine_node if self.combine_node is not None else self.nodes[-1]

    def describe(self) -> str:
        """Stable deterministic name: ``chain[map→filter→map]``."""
        parts = [node.contract.value for node in self.nodes]
        if self.combine_node is not None:
            parts.append("combine")
        return "chain[" + "→".join(parts) + "]"


@dataclass
class ExecutionPlan:
    """A logical plan plus every physical annotation needed to run it."""

    logical_plan: object  # LogicalPlan
    annotations: dict[int, OperatorAnnotation] = field(default_factory=dict)
    #: resolved execution mode per delta-iteration node id
    iteration_modes: dict[int, str] = field(default_factory=dict)
    #: optimizer cost estimate, for tests and plan dumps
    estimated_cost: float = 0.0
    #: fused operator chains keyed by tail node id (see :class:`FusedChain`)
    chains: dict[int, FusedChain] = field(default_factory=dict)
    #: ids of non-tail chain members — the executor never evaluates these
    #: directly (no memo entry, no operator span, no forward ship)
    fused_ids: frozenset[int] = frozenset()
    #: filters pushed below a match's input ship, keyed by MATCH node id
    #: (see :mod:`repro.optimizer.pushdown`): the executor applies the
    #: filter's predicate to that input side *before* shipping, so only
    #: surviving records pay network cost.  The filter node itself still
    #: runs post-join (filters are idempotent), which keeps its operator
    #: span and counters in place
    pushed_filters: dict[int, object] = field(default_factory=dict)

    def annotation(self, node) -> OperatorAnnotation:
        ann = self.annotations.get(node.id)
        if ann is None:
            ann = OperatorAnnotation()
            self.annotations[node.id] = ann
        return ann

    def ship_strategy(self, node, input_index) -> ShipStrategy:
        return self.annotation(node).ship.get(input_index, FORWARD)

    def describe(self) -> str:
        """A compact plan dump (one line per annotated operator)."""
        lines = []
        for node in self.logical_plan.nodes():
            ann = self.annotations.get(node.id)
            if ann is None:
                continue
            ships = ", ".join(
                f"in{idx}={strategy.describe()}" for idx, strategy in sorted(ann.ship.items())
            )
            extras = []
            if ann.combiner:
                extras.append("combiner")
            if ann.cache_across_iterations:
                extras.append("cached")
            if ann.dams:
                extras.append(f"dam{sorted(ann.dams)}")
            extra = (" [" + ", ".join(extras) + "]") if extras else ""
            lines.append(f"{node.name}: {ann.local.value} ({ships}){extra}")
        for tail_id in sorted(self.chains):
            chain = self.chains[tail_id]
            members = "→".join(node.name for node in chain.nodes)
            if chain.combine_node is not None:
                members += f"→{chain.combine_node.name}.combine"
            lines.append(f"{chain.describe()}: {members}")
        return "\n".join(lines)

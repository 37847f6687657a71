"""Logical plan DAG: operator nodes and embedded iteration constructs.

The plan is a directed acyclic graph of :class:`LogicalNode`.  Iterations
never introduce cycles in the represented graph: a bulk iteration is a
complex operator ``(G, I, O, T)`` (Section 4.1) holding its step function
``G`` as a nested subplan rooted at a *partial-solution placeholder*; a
delta iteration ``(Δ, S0, W0)`` (Section 5.1) holds Δ rooted at a
*solution-set* and a *workset* placeholder.  The feedback edge exists only
operationally, inside the executor.
"""

from __future__ import annotations

import itertools
import weakref
from collections import deque

from repro.common.errors import InvalidPlanError
from repro.common.keys import normalize_key_fields
from repro.dataflow.contracts import Contract, is_binary

_node_ids = itertools.count(1)


class _IterationRef(weakref.ref):
    """A weak reference that pickles as the node it refers to.

    A placeholder or solution-set access node names its enclosing
    iteration, and the iteration reaches that node back through its
    body: a strong back-edge would make every plan, its source data
    included, cyclic garbage.  Pickling (the pool's job codec) rebuilds
    the reference around the unpickled iteration, which the rest of
    the plan holds.
    """

    __slots__ = ()

    def __reduce__(self):
        return _IterationRef, (self(),)


class LogicalNode:
    """One operator in the logical plan.

    Parameters
    ----------
    contract:
        The PACT contract (second-order function) of the operator.
    inputs:
        Producer nodes, in input-slot order.
    udf:
        The user-defined first-order function; signature depends on the
        contract (see :mod:`repro.dataflow.dataset`).
    key_fields:
        Per-input key field positions for keyed contracts; ``None`` entries
        for key-less inputs.
    name:
        Human-readable label used in plan dumps and metrics.
    data:
        For sources: the record collection (list of tuples).
    """

    def __init__(self, contract, inputs=(), udf=None, key_fields=None,
                 name=None, data=None):
        self.id = next(_node_ids)
        self.contract = contract
        self.inputs = list(inputs)
        self.udf = udf
        if key_fields is None:
            key_fields = tuple(None for _ in self.inputs)
        self.key_fields = tuple(
            None if kf is None else normalize_key_fields(kf) for kf in key_fields
        )
        self.name = name or f"{contract.value}#{self.id}"
        self.data = data
        #: per input slot: mapping {input field position -> output field
        #: position} of fields the UDF forwards unmodified.  Used for
        #: physical-property preservation and key-constancy analysis.
        self.forwarded_fields: dict[int, dict[int, int]] = {}
        #: optimizer statistics; sources carry exact sizes.
        self.estimated_size: float | None = (
            float(len(data)) if data is not None else None
        )
        #: REDUCE only: whether the UDF is associative/commutative and may
        #: be applied as a pre-shuffle combiner.
        self.combinable = contract is Contract.REDUCE
        #: whether the UDF is a pure function of its input record; the
        #: optimizer only relocates (e.g. pushes down) deterministic UDFs
        self.deterministic = True
        #: FILTER only: field positions the predicate reads, or ``None``
        #: (unknown).  Declaring them (``DataSet.filter(fields=...)``)
        #: lets the optimizer push the filter below a join's ship when
        #: those fields are identity-forwarded from one join input
        self.read_fields: tuple[int, ...] | None = None
        self._enclosing: _IterationRef | None = None

    @property
    def enclosing_iteration(self):
        """The iteration whose step function this placeholder or
        solution-set access belongs to, or ``None`` (held weakly: see
        :class:`_IterationRef`)."""
        return self._enclosing() if self._enclosing is not None else None

    @enclosing_iteration.setter
    def enclosing_iteration(self, iteration):
        self._enclosing = _IterationRef(iteration)

    def with_forwarded_fields(self, input_index, mapping):
        """Declare that ``mapping`` (src field -> dst field) survives the UDF.

        This is the OutputContract mechanism of the PACT model; the
        optimizer uses it to preserve partitioning/sort properties through
        the operator, and the microstep analysis uses it to prove key
        constancy (Section 5.2).
        """
        current = self.forwarded_fields.setdefault(input_index, {})
        current.update({int(k): int(v) for k, v in mapping.items()})
        return self

    def is_source(self):
        return self.contract is Contract.SOURCE

    def is_iteration(self):
        return self.contract in (Contract.BULK_ITERATION, Contract.DELTA_ITERATION)

    def is_placeholder(self):
        return self.contract in (
            Contract.PARTIAL_SOLUTION,
            Contract.WORKSET,
            Contract.SOLUTION_SET,
        )

    def __repr__(self):
        ins = ",".join(str(i.id) for i in self.inputs)
        return f"<{self.name} id={self.id} in=[{ins}]>"


class BulkIterationNode(LogicalNode):
    """Complex operator for a bulk iteration ``(G, I, O, T)`` / ``(G, I, O, n)``.

    ``inputs[0]`` provides the initial partial solution.  The step function
    is the subplan from :attr:`placeholder` to :attr:`body_output`;
    :attr:`termination` optionally names a node inside the body whose empty
    result after a superstep stops the loop (the criterion ``T``).
    """

    def __init__(self, initial, max_iterations, name=None):
        super().__init__(Contract.BULK_ITERATION, inputs=[initial], name=name)
        if max_iterations < 1:
            raise InvalidPlanError("bulk iteration needs max_iterations >= 1")
        self.max_iterations = int(max_iterations)
        self.placeholder = LogicalNode(
            Contract.PARTIAL_SOLUTION, name=f"{self.name}.partial_solution"
        )
        self.placeholder.enclosing_iteration = self
        self.body_output: LogicalNode | None = None
        self.termination: LogicalNode | None = None
        #: optional driver-side convergence test fn(prev_records, new_records)
        #: -> bool, used when no termination subplan is given.
        self.convergence_check = None

    def close(self, body_output, termination=None, convergence_check=None):
        self.body_output = body_output
        self.termination = termination
        self.convergence_check = convergence_check
        return self


class DeltaIterationNode(LogicalNode):
    """Complex operator for an incremental (workset) iteration ``(Δ, S0, W0)``.

    ``inputs[0]`` is the initial solution set ``S0`` (records uniquely
    identified by ``key_fields``); ``inputs[1]`` is the initial workset
    ``W0``.  The step function Δ is the subplan from
    :attr:`solution_placeholder` / :attr:`workset_placeholder` to
    :attr:`delta_output` and :attr:`workset_output`.  After each superstep
    the delta set is merged into the solution set with ``∪̇`` (Section 5.1),
    consulting :attr:`should_replace` when a key collides.  The iteration
    terminates when the next workset is empty.
    """

    MODES = ("superstep", "microstep", "async", "auto")

    def __init__(self, initial_solution, initial_workset, key_fields,
                 max_iterations, name=None):
        super().__init__(
            Contract.DELTA_ITERATION,
            inputs=[initial_solution, initial_workset],
            name=name,
        )
        if max_iterations < 1:
            raise InvalidPlanError("delta iteration needs max_iterations >= 1")
        self.max_iterations = int(max_iterations)
        self.solution_key = normalize_key_fields(key_fields)
        self.solution_placeholder = LogicalNode(
            Contract.SOLUTION_SET, name=f"{self.name}.solution_set"
        )
        self.solution_placeholder.enclosing_iteration = self
        self.workset_placeholder = LogicalNode(
            Contract.WORKSET, name=f"{self.name}.workset"
        )
        self.workset_placeholder.enclosing_iteration = self
        self.delta_output: LogicalNode | None = None
        self.workset_output: LogicalNode | None = None
        #: fn(new_record, old_record) -> bool; True if the delta record
        #: supersedes the stored record (the CPO comparator of Section 5.1).
        #: ``None`` means the delta always replaces.
        self.should_replace = None
        self.mode = "auto"

    def close(self, delta_output, workset_output, should_replace=None,
              mode="auto"):
        if mode not in self.MODES:
            raise InvalidPlanError(f"unknown delta iteration mode {mode!r}")
        self.delta_output = delta_output
        self.workset_output = workset_output
        self.should_replace = should_replace
        self.mode = mode
        return self


def map_fields_forward(node, input_index, fields):
    """Translate input field positions to output positions, or None."""
    mapping = node.forwarded_fields.get(input_index, {})
    return _map_fields(node, fields, mapping)


def map_fields_backward(node, input_index, fields):
    """Translate output field positions to input positions, or None."""
    mapping = node.forwarded_fields.get(input_index, {})
    inverse = {dst: src for src, dst in mapping.items()}
    return _map_fields(node, fields, inverse)


def _map_fields(node, fields, mapping):
    """``fields`` through the field ``mapping`` of ``node``'s declared
    forwarded fields, or None if one is not declared (a filter forwards
    every field)."""
    if node.contract is Contract.FILTER:
        return tuple(fields)
    if not all(f in mapping for f in fields):
        return None
    return tuple(mapping[f] for f in fields)


def ancestors(node, stop=()):
    """All transitive producers of ``node`` (inclusive), respecting ``stop``.

    Traversal does not descend below nodes in ``stop`` and does not enter
    nested iteration bodies (an iteration node is treated as an opaque
    complex operator whose inputs are its outer inputs).
    """
    stop = set(stop)
    seen = {}
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur.id in seen:
            continue
        seen[cur.id] = cur
        if cur in stop:
            continue
        stack.extend(cur.inputs)
    return list(seen.values())


def iteration_body_nodes(iteration):
    """All nodes of an iteration's step-function subplan, placeholders included.

    The body consists of every ancestor of the body outputs (and the
    termination node, for bulk iterations).  Outer inputs of the iteration
    node itself are excluded; nodes on the constant data path (e.g. a
    source joined in every superstep) *are* included, because they execute
    inside the loop scope (cached after the first superstep, Section 4.3).
    """
    roots = _body_roots(iteration)
    outer = set(iteration.inputs)
    result = {}
    for root in roots:
        for node in ancestors(root, stop=outer):
            if node not in outer:
                result[node.id] = node
    return list(result.values())


def _body_roots(iteration):
    if iteration.contract is Contract.BULK_ITERATION:
        roots = [iteration.body_output]
        if iteration.termination is not None:
            roots.append(iteration.termination)
    else:
        roots = [iteration.delta_output, iteration.workset_output]
    missing = [r for r in roots if r is None]
    if missing:
        raise InvalidPlanError(f"iteration {iteration.name} was never closed")
    return roots


def dynamic_path_nodes(iteration):
    """Body nodes on the *dynamic data path* (Section 4.1).

    These are the nodes reachable from the iteration's placeholder(s) —
    they process different data in every superstep.  The complement within
    the body is the constant data path, eligible for caching.
    """
    body = iteration_body_nodes(iteration)
    by_id = {n.id: n for n in body}
    consumers: dict[int, list[LogicalNode]] = {n.id: [] for n in body}
    for node in body:
        for inp in node.inputs:
            if inp.id in by_id:
                consumers[inp.id].append(node)
    if iteration.contract is Contract.BULK_ITERATION:
        seeds = [iteration.placeholder]
    else:
        seeds = [iteration.solution_placeholder, iteration.workset_placeholder]
    dynamic = {}
    queue = deque(s for s in seeds if s.id in by_id)
    while queue:
        cur = queue.popleft()
        if cur.id in dynamic:
            continue
        dynamic[cur.id] = cur
        queue.extend(consumers[cur.id])
    return list(dynamic.values())


def topological_order(roots, stop=()):
    """Kahn topological order over the ancestors of ``roots``.

    Raises :class:`InvalidPlanError` on cycles (which can only arise from
    plan-construction bugs, since iterations are nested, not cyclic).
    """
    nodes = {}
    for root in roots:
        for node in ancestors(root, stop=stop):
            nodes[node.id] = node
    indegree = {nid: 0 for nid in nodes}
    consumers: dict[int, list[int]] = {nid: [] for nid in nodes}
    for node in nodes.values():
        for inp in node.inputs:
            if inp.id in nodes:
                indegree[node.id] += 1
                consumers[inp.id].append(node.id)
    ready = deque(sorted(nid for nid, deg in indegree.items() if deg == 0))
    order = []
    while ready:
        nid = ready.popleft()
        order.append(nodes[nid])
        for consumer in consumers[nid]:
            indegree[consumer] -= 1
            if indegree[consumer] == 0:
                ready.append(consumer)
    if len(order) != len(nodes):
        raise InvalidPlanError("cycle detected in logical plan")
    return order


class LogicalPlan:
    """A complete program: one or more sink nodes plus all their ancestors."""

    def __init__(self, sinks):
        self.sinks = list(sinks)
        if not self.sinks:
            raise InvalidPlanError("plan has no sinks")

    def nodes(self):
        """Every node of the plan, iteration bodies included."""
        result = {}
        pending = list(topological_order(self.sinks))
        while pending:
            node = pending.pop()
            if node.id in result:
                continue
            result[node.id] = node
            if node.is_iteration():
                pending.extend(iteration_body_nodes(node))
        return list(result.values())

    def validate(self):
        """Structural validation; raises :class:`InvalidPlanError` on problems."""
        for node in self.nodes():
            self._validate_node(node)
        return self

    def _validate_node(self, node):
        if is_binary(node.contract) and len(node.inputs) != 2:
            raise InvalidPlanError(
                f"{node.name}: contract {node.contract.value} needs 2 inputs, "
                f"got {len(node.inputs)}"
            )
        if node.contract is Contract.MATCH:
            left, right = node.key_fields
            if left is None or right is None:
                raise InvalidPlanError(f"{node.name}: match requires keys on both sides")
            if len(left) != len(right):
                raise InvalidPlanError(
                    f"{node.name}: key arity mismatch {left} vs {right}"
                )
        if node.is_placeholder() and node.enclosing_iteration is None:
            raise InvalidPlanError(
                f"{node.name}: placeholder used outside an iteration"
            )
        if node.is_iteration():
            _body_roots(node)  # raises if never closed

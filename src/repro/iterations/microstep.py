"""Static eligibility analysis for microstep execution (Section 5.2).

A delta iteration may execute in microsteps — one workset element at a
time, with updates to the solution set taking effect immediately — only
if its step function Δ satisfies:

1. Every operator on the dynamic data path is record-at-a-time (Map,
   FlatMap, Filter, Match/solution-join, Cross).  Group-at-a-time
   operators need superstep boundaries to delimit their groups.
2. Binary operators have at most one input on the dynamic data path; the
   other input is constant (e.g. the graph topology table N).
3. The dynamic data path is unbranched: each dynamic operator has exactly
   one dynamic consumer, except the delta output, which both terminates
   the update path and seeds the workset path.  In particular the next
   workset may depend on the current workset only through the delta
   element ``d`` (Table 1, MICRO line 5).
4. Updates to the solution set are partition-local: the fields holding
   ``k(s)`` are constant along the path from the solution-set access to
   the delta output, and every operator on that path is either key-less
   or keyed on ``k(s)``.  This is the condition that lets the engine skip
   distributed locking (Section 5.2) and merge deltas immediately
   (Section 5.3).
5. The solution set is read at most once per element, on the update
   path: no second access before the delta output, none on the path
   from the delta output to the next workset.  The runtime drains a
   queue in runs and folds each run through the solution set before it
   runs the workset path over the run's deltas, which equals per-record
   dispatch only under this condition.

Field constancy is proven through the operators' declared forwarded
fields (OutputContracts); an undeclared UDF is conservatively assumed to
destroy all fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import MicrostepViolation
from repro.dataflow.contracts import Contract, is_record_at_a_time
from repro.dataflow.graph import (
    dynamic_path_nodes,
    iteration_body_nodes,
    map_fields_backward,
    map_fields_forward,
)

#: the stateful operators that read the solution set
_SOLUTION_ACCESS = (Contract.SOLUTION_JOIN, Contract.SOLUTION_COGROUP)


@dataclass
class MicrostepReport:
    """Outcome of the analysis plus the compiled pipeline structure."""

    eligible: bool
    reasons: list[str] = field(default_factory=list)
    #: dynamic-path operators from the workset placeholder (exclusive) to
    #: the delta output (inclusive), in execution order
    chain_to_delta: list = field(default_factory=list)
    #: dynamic-path operators from the delta output (exclusive) to the
    #: workset output (inclusive), in execution order
    chain_to_workset: list = field(default_factory=list)
    #: whether delta updates are provably partition-local
    local_updates: bool = False
    #: field positions of the *workset record* that route it to its queue
    #: partition — the solution access's probe key traced backwards
    workset_route_fields: tuple = None

    def raise_if_ineligible(self):
        if not self.eligible:
            raise MicrostepViolation("; ".join(self.reasons))
        return self

    def span_attributes(self) -> dict:
        """The analysis outcome as flat span attributes (tracing)."""
        return {
            "eligible": self.eligible,
            "stages_to_delta": len(self.chain_to_delta),
            "stages_to_workset": len(self.chain_to_workset),
            "local_updates": self.local_updates,
            "route_fields": self.workset_route_fields,
        }


def analyze_microstep(iteration) -> MicrostepReport:
    """Analyze a closed :class:`DeltaIterationNode` for microstep eligibility."""
    report = MicrostepReport(eligible=True)
    dynamic = dynamic_path_nodes(iteration)
    dynamic_ids = {n.id for n in dynamic}
    body_ids = {n.id for n in iteration_body_nodes(iteration)}

    placeholders = {
        iteration.solution_placeholder.id,
        iteration.workset_placeholder.id,
    }

    # Condition 1 & 2: contracts and dynamic-input arity.
    for node in dynamic:
        if node.id in placeholders:
            continue
        if not is_record_at_a_time(node.contract):
            report.eligible = False
            report.reasons.append(
                f"{node.name}: {node.contract.value} is group-at-a-time"
            )
        dyn_inputs = [i for i in node.inputs if i.id in dynamic_ids]
        if node.contract is not Contract.SOLUTION_JOIN and len(dyn_inputs) > 1:
            report.eligible = False
            report.reasons.append(
                f"{node.name}: {len(dyn_inputs)} inputs on the dynamic path"
            )

    # Condition 3: unbranched dynamic path.
    consumers = _dynamic_consumers(iteration, dynamic_ids, body_ids)
    delta = iteration.delta_output
    workset_out = iteration.workset_output
    for node in dynamic:
        outs = consumers.get(node.id, [])
        limit = 1
        if node.id == delta.id and delta.id != workset_out.id:
            # the delta output feeds the workset chain *and* terminates
            limit = 1 if node.id == workset_out.id else 1
        if node.id in placeholders:
            # the solution-set placeholder is consumed only by stateful
            # operators; the workset placeholder must have one consumer
            if node.id == iteration.workset_placeholder.id and len(outs) > 1:
                report.eligible = False
                report.reasons.append("workset consumed by multiple operators")
            continue
        if node.id == delta.id:
            continue  # checked via chain extraction below
        if node.id == workset_out.id:
            continue  # terminal
        if len(outs) > limit:
            report.eligible = False
            report.reasons.append(
                f"{node.name}: dynamic path branches ({len(outs)} consumers)"
            )

    if not report.eligible:
        return report

    # Chain extraction; also verifies W_{i+1} depends on W_i only through d.
    try:
        report.chain_to_delta = _extract_chain(
            iteration.workset_placeholder, delta, consumers, dynamic_ids
        )
        if workset_out.id == delta.id:
            report.chain_to_workset = []
        else:
            report.chain_to_workset = _extract_chain(
                delta, workset_out, consumers, dynamic_ids
            )
    except MicrostepViolation as violation:
        report.eligible = False
        report.reasons.append(str(violation))
        return report

    # Condition 5: one solution access, on the delta chain.
    accesses = [n for n in report.chain_to_delta
                if n.contract in _SOLUTION_ACCESS]
    for node in accesses[1:]:
        report.eligible = False
        report.reasons.append(
            f"{node.name}: a second solution-set access on the delta path"
        )
    for node in report.chain_to_workset:
        if node.contract in _SOLUTION_ACCESS:
            report.eligible = False
            report.reasons.append(
                f"{node.name}: solution-set access on the workset path "
                "(it would read state later records already changed)"
            )
    if not report.eligible:
        return report

    # Condition 4: key constancy from the solution access to the delta.
    report.local_updates = _updates_are_local(iteration, report.chain_to_delta)
    if not report.local_updates:
        report.eligible = False
        report.reasons.append(
            "solution key not provably constant between the solution-set "
            "access and the delta output (declare forwarded fields)"
        )
        return report

    # Routing: the queues are partitioned like the solution set, so the
    # solution access's probe key must be traceable back to fields of the
    # raw workset record (through the operators preceding the access).
    report.workset_route_fields = _route_fields(iteration,
                                                report.chain_to_delta)
    if report.workset_route_fields is None:
        report.eligible = False
        report.reasons.append(
            "the solution access's probe key cannot be traced back to "
            "workset record fields (declare forwarded fields on the "
            "operators preceding the access)"
        )
    return report


def _route_fields(iteration, chain_to_delta):
    """Probe-key positions of the solution access, in workset coordinates.

    Walks backwards from the first stateful access through the preceding
    chain operators; without an access, traces the solution key back
    from the delta output (deltas route by ``k(s)``).
    """
    access_pos = None
    for pos, node in enumerate(chain_to_delta):
        if node.contract in _SOLUTION_ACCESS:
            access_pos = pos
            break
    if access_pos is None:
        fields = iteration.solution_key
        prefix = chain_to_delta
    else:
        fields = chain_to_delta[access_pos].key_fields[0]
        prefix = chain_to_delta[:access_pos]
    for node in reversed(prefix):
        dyn_input = _dynamic_input_index(node, chain_to_delta)
        fields = map_fields_backward(node, dyn_input, fields)
        if fields is None:
            return None
    return fields


def _dynamic_consumers(iteration, dynamic_ids, body_ids):
    consumers: dict[int, list] = {}
    for node in iteration_body_nodes(iteration):
        for inp in node.inputs:
            if inp.id in dynamic_ids and node.id in body_ids:
                consumers.setdefault(inp.id, []).append(node)
    return consumers


def _extract_chain(start, end, consumers, dynamic_ids):
    """Follow the single dynamic consumer edge from ``start`` to ``end``."""
    chain = []
    current = start
    seen = set()
    while current.id != end.id:
        if current.id in seen:
            raise MicrostepViolation("dynamic path contains a repeat")
        seen.add(current.id)
        nexts = [n for n in consumers.get(current.id, []) if n.id in dynamic_ids]
        if len(nexts) != 1:
            raise MicrostepViolation(
                f"{current.name}: expected exactly one dynamic consumer on "
                f"the path to {end.name}, found {len(nexts)}"
            )
        current = nexts[0]
        chain.append(current)
    return chain


def _updates_are_local(iteration, chain_to_delta) -> bool:
    """Prove the solution key is constant from the stateful access to D."""
    solution_key = iteration.solution_key
    # Find the stateful solution access on the chain (if Δ never reads S,
    # updates are trivially local because the delta is routed by key).
    access_pos = None
    for pos, node in enumerate(chain_to_delta):
        if node.contract in _SOLUTION_ACCESS:
            access_pos = pos
    if access_pos is None:
        return True

    access = chain_to_delta[access_pos]
    # The access itself must join on k(s) and forward it unchanged.
    probe_key = access.key_fields[0]
    tracked = map_fields_forward(access, 0, probe_key)
    if tracked is None:
        return False
    for node in chain_to_delta[access_pos + 1:]:
        dynamic_input = _dynamic_input_index(node, chain_to_delta)
        keyed = node.key_fields[dynamic_input] if dynamic_input < len(node.key_fields) else None
        if keyed is not None and keyed != tracked:
            return False
        tracked = map_fields_forward(node, dynamic_input, tracked)
        if tracked is None:
            return False
    return tracked == solution_key


def _dynamic_input_index(node, chain) -> int:
    """Which input slot of ``node`` carries the dynamic path (default 0)."""
    chain_ids = {n.id for n in chain}
    for idx, inp in enumerate(node.inputs):
        if inp.id in chain_ids:
            return idx
    return 0

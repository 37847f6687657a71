"""Plan rendering: Graphviz (DOT) drawings and textual explain reports.

``plan_to_dot`` draws the operator DAG with iteration bodies as
clusters; when an :class:`~repro.runtime.plan.ExecutionPlan` is
supplied, edges carry their shipping strategies and nodes their local
strategies — the same information ``ExecutionPlan.describe`` prints,
but in a shape suitable for papers and debugging sessions:

    dot = plan_to_dot(env.last_plan.logical_plan, env.last_plan)
    open("plan.dot", "w").write(dot)   # render with `dot -Tsvg`

Passing ``env`` additionally labels every operator with its *estimated*
cardinality and — when the environment's
:class:`~repro.optimizer.observer.CardinalityObserver` has measured the
operator in a previous run — the *observed* one, so a stale estimate
that steered the optimizer wrong is visible at a glance.

``explain_plan`` prints the same information as an indented text
report; ``DataSet.explain()`` is the fluent entry point (compile, don't
execute, describe).
"""

from __future__ import annotations

from repro.dataflow.contracts import Contract
from repro.dataflow.graph import iteration_body_nodes, topological_order
from repro.optimizer.statistics import Statistics


def _plan_stats(env) -> Statistics:
    observer = getattr(env, "observer", None) if env is not None else None
    return Statistics(
        observed=getattr(observer, "sizes", None),
        selectivities=getattr(observer, "selectivities", None),
    )


def _cardinality_note(node, stats, observed) -> str:
    """``est=N`` or ``est=N obs=M`` for one operator."""
    note = f"est={stats.size(node):g}"
    measured = observed.get(node.name)
    if measured is not None:
        note += f" obs={measured:g}"
    return note

_SHAPES = {
    Contract.SOURCE: "cylinder",
    Contract.SINK: "cds",
    Contract.BULK_ITERATION: "doubleoctagon",
    Contract.DELTA_ITERATION: "doubleoctagon",
    Contract.PARTIAL_SOLUTION: "invhouse",
    Contract.WORKSET: "invhouse",
    Contract.SOLUTION_SET: "house",
}


def _escape(text: str) -> str:
    return text.replace('"', r"\"")


def _node_line(node, exec_plan, stats=None, observed=None) -> str:
    shape = _SHAPES.get(node.contract, "box")
    label = node.name
    if exec_plan is not None:
        ann = exec_plan.annotations.get(node.id)
        if ann is not None and ann.local.value != "none":
            label += f"\\n[{ann.local.value}]"
    if stats is not None and not node.is_placeholder():
        label += "\\n" + _cardinality_note(node, stats, observed or {})
    return f'  n{node.id} [label="{_escape(label)}", shape={shape}];'


def _edge_line(producer, consumer, input_index, exec_plan) -> str:
    attrs = ""
    if exec_plan is not None:
        ann = exec_plan.annotations.get(consumer.id)
        if ann is not None and input_index in ann.ship:
            strategy = ann.ship[input_index].describe()
            if strategy != "forward":
                attrs = f' [label="{_escape(strategy)}"]'
    return f"  n{producer.id} -> n{consumer.id}{attrs};"


def plan_to_dot(logical_plan, exec_plan=None, env=None) -> str:
    """Render a plan (optionally with physical annotations) as DOT text.

    With ``env``, nodes additionally carry estimated (and, when the
    environment observed the operator in a previous run, measured)
    cardinalities.
    """
    stats = _plan_stats(env) if env is not None else None
    observer = getattr(env, "observer", None) if env is not None else None
    observed = getattr(observer, "sizes", {}) or {}
    lines = [
        "digraph plan {",
        "  rankdir=BT;",
        '  node [fontname="Helvetica", fontsize=10];',
        '  edge [fontname="Helvetica", fontsize=9];',
    ]
    emitted: set[int] = set()
    edges: list[str] = []

    def emit(node, indent="  "):
        if node.id in emitted:
            return
        emitted.add(node.id)
        lines.append(
            indent + _node_line(node, exec_plan, stats, observed).strip()
        )
        for idx, producer in enumerate(node.inputs):
            edges.append(_edge_line(producer, node, idx, exec_plan))

    outer = topological_order(logical_plan.sinks)
    iterations = [n for n in outer if n.is_iteration()]
    for node in outer:
        if not node.is_iteration():
            emit(node)
        else:
            emit(node)  # the complex operator itself
    for iteration in iterations:
        lines.append(f"  subgraph cluster_{iteration.id} {{")
        lines.append(f'    label="{_escape(iteration.name)} body";')
        lines.append("    style=dashed;")
        for body_node in iteration_body_nodes(iteration):
            emit(body_node, indent="    ")
        lines.append("  }")
    lines.extend(sorted(set(edges)))
    lines.append("}")
    return "\n".join(lines)


def explain_plan(exec_plan, env=None) -> str:
    """Indented text report of a compiled plan.

    One block per operator (outer region first, then each iteration
    body): the chosen local strategy, estimated vs observed
    cardinality, and per input edge the chosen ship strategy plus a
    pushed-down filter riding on it, if any.
    """
    stats = _plan_stats(env)
    observer = getattr(env, "observer", None) if env is not None else None
    observed = getattr(observer, "sizes", {}) or {}
    outer = topological_order(exec_plan.logical_plan.sinks)
    lines: list[str] = []

    def describe(node, indent=""):
        ann = exec_plan.annotations.get(node.id)
        local = ann.local.value if ann is not None else "none"
        note = ("" if node.is_placeholder()
                else "  " + _cardinality_note(node, stats, observed))
        lines.append(
            f"{indent}{node.name} ({node.contract.value}): {local}{note}"
        )
        pushed = exec_plan.pushed_filters.get(node.id)
        for idx, producer in enumerate(node.inputs):
            ship = ann.ship.get(idx) if ann is not None else None
            mark = ""
            if pushed is not None and pushed.side == idx:
                mark = f"  [pushdown:{pushed.filter_node.name}]"
            lines.append(
                f"{indent}  in{idx} ← {producer.name}: "
                f"{ship.describe() if ship is not None else 'forward'}{mark}"
            )

    for node in outer:
        describe(node)
    for iteration in outer:
        if not iteration.is_iteration():
            continue
        mode = exec_plan.iteration_modes.get(iteration.id)
        lines.append(
            f"{iteration.name} body"
            + (f" (mode={mode})" if mode else "") + ":"
        )
        for body_node in iteration_body_nodes(iteration):
            describe(body_node, indent="  ")
    return "\n".join(lines)

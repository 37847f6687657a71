"""Filter pushdown below a match's ship (optimizer v2 rewrites).

A record-wise filter sitting directly on top of a join can often be
evaluated *before* the join's inputs are shipped: when every field the
predicate reads is identity-forwarded from one join input, a record that
the filter would discard post-join can be discarded pre-ship — it pays
neither network nor probe cost.  This is the classic
selection-below-join rewrite, restricted here to the shapes where it is
provably safe for tuples-as-records:

* the filter's UDF is **deterministic** (``DataSet.filter`` default;
  ``deterministic=False`` fences it off) — a stateful predicate may not
  be evaluated a different number of times or in a different order,
* the filter **declares its read fields** (``fields=...``); without the
  declaration nothing is known about what the predicate touches and it
  is never moved,
* the match forwards every read field **identity-mapped** (input
  position ``f`` → output position ``f``) from exactly one input side —
  if both sides qualify the rewrite would be ambiguous and is skipped,
* the match has **no other consumer** — another consumer sees the
  unfiltered join output, so the join must still produce it,
* only the **outer region** is rewritten; iteration bodies keep the
  plan the enumerator chose for them.

Execution model: the executor applies the pushed predicate *silently*
(no spans, no logical counters) to the chosen input side just before
shipping it, and the filter node itself still runs normally post-join.
Filters are idempotent, so re-filtering the surviving records is a
no-op semantically; leaving the node in place keeps its operator span,
processed counts, and any fused chain it belongs to exactly where the
un-pushed plan has them.  The only observable differences are physical:
fewer records shipped and probed.  Dams are never crossed: the rewrite
moves the predicate *down* from a join consumer onto the join's own
input edge — it never relocates a filter past a materializing operator
such as a REDUCE, because such a filter does not sit on a MATCH in the
first place.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dataflow.contracts import Contract
from repro.dataflow.graph import topological_order


@dataclass(frozen=True)
class PushedFilter:
    """One filter pushed below one match input's ship.

    ``side`` is the match input slot whose records the predicate can be
    applied to pre-ship; ``filter_node`` is the FILTER logical node
    (still executed post-join).
    """

    side: int
    filter_node: object


def plan_pushdown(logical_plan) -> dict:
    """Map of {match node id: :class:`PushedFilter`} for the outer region."""
    outer = topological_order(logical_plan.sinks)
    consumers: dict[int, list] = {}
    for node in outer:
        for producer in node.inputs:
            consumers.setdefault(producer.id, []).append(node)

    pushed: dict[int, PushedFilter] = {}
    for node in outer:
        if node.contract is not Contract.FILTER:
            continue
        side = _pushable_side(node, consumers)
        if side is not None:
            pushed[node.inputs[0].id] = PushedFilter(side, node)
    return pushed


def _pushable_side(filter_node, consumers):
    """The unique match input slot ``filter_node`` can move below, or None."""
    if not getattr(filter_node, "deterministic", True):
        return None
    read_fields = getattr(filter_node, "read_fields", None)
    if read_fields is None:
        return None
    if len(filter_node.inputs) != 1:
        return None
    match = filter_node.inputs[0]
    if match.contract is not Contract.MATCH:
        return None
    match_consumers = consumers.get(match.id, [])
    if len(match_consumers) != 1 or match_consumers[0] is not filter_node:
        return None
    qualifying = [
        idx
        for idx in range(len(match.inputs))
        if all(
            match.forwarded_fields.get(idx, {}).get(field) == field
            for field in read_fields
        )
    ]
    if len(qualifying) != 1:
        return None  # no side proves the fields, or both sides do (ambiguous)
    return qualifying[0]

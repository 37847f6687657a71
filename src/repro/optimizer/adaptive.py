"""Adaptive re-optimization between supersteps (optimizer v2).

Static plans price a delta iteration's dynamic edges with
``CostWeights.expected_iterations`` and a guessed workset size.  Both
guesses are usually wrong: worksets shrink (often geometrically) as the
computation converges, so the ship strategy that was right for the
first superstep can be badly wrong for the twentieth.  This module
implements the paper's Section 6 idea of weighting the dynamic data
path separately — but *live*: at every superstep boundary the executor
re-costs an eligible match's probe edge with the superstep's **measured**
global probe cardinality and switches the physical ship strategy once
the cumulative saving clears the switch overhead.

Observational invisibility
--------------------------
A switch changes only *physical* counters (bytes, batches).  Results
stay bitwise identical, logical counters (records processed / shipped
local / remote, cache hits) keep their baseline values, and span trees
keep their baseline structure plus one ``plan_switch`` instant.  The
executor guarantees this by virtualizing counters against the baseline
plan and — for a broadcast→hash switch — re-assembling the join output
into the exact partitions *and order* the baseline would have produced
(see ``Executor._probe_switched_hash``).  The cross-backend bitwise
audit therefore holds with adaptivity on or off, and the two modes are
distinguishable only through physical transport counters and the
``plan_switches`` count.

Eligibility (computed at compile time by :func:`annotate_adaptive`):

* the match sits on the dynamic path of a superstep-mode delta
  iteration, with a locally hash-built **constant** side (its table is
  cached across supersteps) and a **dynamic** probe side;
* baseline probe ship BROADCAST → may switch to PARTITION_HASH on the
  probe key (profitable once the workset shrinks past the crossover:
  broadcast ships ``n·(p-1)`` and probes ``n·p`` records per superstep,
  hash ships ``~n·(p-1)/p`` and probes ``n``);
* baseline probe ship PARTITION_HASH with the build side hash-placed on
  the build key → may switch to BROADCAST.  This direction is never
  profitable under the honest cost model (broadcast strictly dominates
  on ship volume *and* probe volume for a replicated probe); it exists
  for the ``force_at_superstep`` hook so parity tests can exercise both
  switch directions.

The decision itself (:func:`decide`) is a pure function of the
superstep's measured cardinality, so all SPMD workers — which see the
same allreduced count — take the same branch deterministically.
"""

from __future__ import annotations

from repro.dataflow.contracts import Contract
from repro.dataflow.graph import dynamic_path_nodes, iteration_body_nodes
from repro.optimizer import costs, session_weights
from repro.optimizer.statistics import Statistics
from repro.runtime.plan import AdaptiveSpec, LocalStrategy, ShipKind

#: a switch must promise at least this multiple of its one-time overhead
#: in remaining savings — guards against flapping near the crossover on
#: noisy trajectories (the switch itself is one-way, this just delays it
#: until the evidence is decisive)
HYSTERESIS = 1.3


def decide(spec, n_probe, superstep, parallelism, weights,
           hysteresis=HYSTERESIS) -> bool:
    """Should the probe edge switch strategy *now*?

    Pure in its inputs: ``n_probe`` is the superstep's global probe-side
    cardinality (allreduced, hence identical on every SPMD worker), so
    every worker takes the same branch.
    """
    if spec.force_at_superstep is not None:
        return superstep >= spec.force_at_superstep
    if spec.baseline_kind is not ShipKind.BROADCAST:
        # hash→broadcast never wins honestly: a replicated probe ships
        # strictly more and probes strictly more than a partitioned one
        return False
    n = float(n_probe)
    if n <= 0.0:
        return False
    baseline_step = (
        costs.ship_cost(ShipKind.BROADCAST, n, parallelism, weights)
        + costs.probe_cost(n * parallelism, weights)
    )
    switched_step = (
        # hash-route the probe records...
        costs.ship_cost(ShipKind.PARTITION_HASH, n, parallelism, weights)
        # ...probe each once at its owner...
        + costs.probe_cost(n, weights)
        # ...and route the emissions back to their baseline partitions
        + costs.ship_cost(ShipKind.PARTITION_HASH, n, parallelism, weights)
    )
    saving = baseline_step - switched_step
    if saving <= 0.0:
        return False
    # one-time switch overhead: silently re-shipping and re-building the
    # constant side's hash tables, origin-tagged, at their key owners
    overhead = (
        costs.ship_cost(ShipKind.PARTITION_HASH, spec.est_build_size,
                        parallelism, weights)
        + costs.hash_build_cost(spec.est_build_size, weights)
    )
    remaining = max(1.0, weights.expected_iterations - superstep)
    return saving * remaining > hysteresis * overhead


def annotate_adaptive(exec_plan, env) -> None:
    """Record adaptive eligibility on ``exec_plan`` (see module docstring).

    Called by ``ExecutionEnvironment._compile`` after plan overrides are
    applied (so the specs describe the plan that will actually run,
    forced experiment plans included) and before chain fusion.  The
    specs — and the cost weights their re-costing uses, which therefore
    reach every SPMD worker inside the plan — are recorded
    unconditionally: the *plan* is identical with adaptivity on or off;
    the executor consults ``config.adaptive``.
    """
    logical_plan = exec_plan.logical_plan
    exec_plan.adaptive_weights = session_weights(env)
    observer = getattr(env, "observer", None)
    stats = Statistics(
        observed=getattr(observer, "sizes", None),
        selectivities=getattr(observer, "selectivities", None),
    )
    for iteration in logical_plan.nodes():
        if iteration.contract is not Contract.DELTA_ITERATION:
            continue
        if exec_plan.iteration_modes.get(iteration.id) != "superstep":
            continue
        dynamic_ids = {n.id for n in dynamic_path_nodes(iteration)}
        for node in iteration_body_nodes(iteration):
            if node.contract is not Contract.MATCH:
                continue
            if node.id not in dynamic_ids:
                continue  # constant subplans never re-execute
            spec = _eligible(exec_plan, iteration, node, dynamic_ids, stats)
            if spec is not None:
                exec_plan.adaptive[node.id] = spec


def _eligible(exec_plan, iteration, node, dynamic_ids, stats):
    """Build the :class:`AdaptiveSpec` for one match, or ``None``."""
    ann = exec_plan.annotations.get(node.id)
    if ann is None:
        return None
    if ann.local is LocalStrategy.HASH_BUILD_LEFT:
        build_idx = 0
    elif ann.local is LocalStrategy.HASH_BUILD_RIGHT:
        build_idx = 1
    else:
        return None
    probe_idx = 1 - build_idx
    build_producer = node.inputs[build_idx]
    probe_producer = node.inputs[probe_idx]
    # the build side must be constant (its tables are cached across
    # supersteps — the executor's cached-match path) and the probe side
    # dynamic (re-shipped every superstep: that edge is what a switch
    # re-prices)
    if build_producer.id in dynamic_ids or build_producer.is_placeholder():
        return None
    if not (probe_producer.id in dynamic_ids
            or probe_producer.is_placeholder()):
        return None
    probe_ship = ann.ship.get(probe_idx)
    if probe_ship is None:
        return None
    probe_key = node.key_fields[probe_idx]
    build_key = node.key_fields[build_idx]
    if probe_key is None or build_key is None:
        return None
    if probe_ship.kind is ShipKind.BROADCAST:
        switch_kind = ShipKind.PARTITION_HASH
    elif probe_ship.kind is ShipKind.PARTITION_HASH:
        # hash→broadcast is only sound when the build tables are
        # key-partitioned: a replicated probe record then finds each
        # match at exactly one partition (its key's owner)
        build_ship = ann.ship.get(build_idx)
        if build_ship is None or build_ship.kind is not ShipKind.PARTITION_HASH:
            return None
        if tuple(build_ship.key_fields) != tuple(build_key):
            return None
        if tuple(probe_ship.key_fields or ()) != tuple(probe_key):
            return None
        switch_kind = ShipKind.BROADCAST
    else:
        return None
    return AdaptiveSpec(
        iteration_id=iteration.id,
        node_id=node.id,
        probe_index=probe_idx,
        build_index=build_idx,
        baseline_kind=probe_ship.kind,
        switch_kind=switch_kind,
        probe_key=tuple(probe_key),
        build_key=tuple(build_key),
        est_build_size=stats.size(build_producer),
        force_at_superstep=getattr(node, "force_switch_at", None),
    )

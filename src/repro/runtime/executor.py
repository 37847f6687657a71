"""The plan interpreter: runs annotated plans over simulated partitions.

Non-iterative parts execute operator-at-a-time in topological order.
Iterations follow the feedback-channel scheme of Section 4.2: the step
function's subplan is evaluated once per superstep with fresh memoization
for the *dynamic data path*, while the *constant data path* is evaluated
once and its shipped results (and hash-join build tables) are cached at
the point where the constant path meets the dynamic path (Section 4.3).

Delta iterations (Section 5) keep the solution set in a partitioned
primary hash index (:class:`~repro.iterations.solution_set.SolutionSetIndex`).
Three execution modes are supported, mirroring Section 5.3:

* ``superstep`` — batch-incremental: Δ runs as a set-at-a-time dataflow,
  delta records are staged during the superstep and merged at the barrier.
* ``microstep`` — per-element execution with *supersteps*: each workset
  element updates the solution set immediately (queues drain in runs
  folded through it in arrival order), but produced workset records are
  buffered for the next superstep (the buffering queues of Figure 6).
* ``async`` — per-element execution in bounded-drain rounds: each
  partition drains at most ``async_poll_batch`` records per round, sees
  its own emissions at once and the others' at the end of the round.

This module supplies the step functions that evaluate the plan (one bulk
step, one Δ superstep); the superstep protocol around them is
:func:`repro.iterations.supersteps.run_supersteps`, and the two per-element
modes live in :mod:`repro.iterations.microstep_runtime`.
"""

from __future__ import annotations

from repro.cluster.context import LOCAL
from repro.common.errors import InvalidPlanError
from repro.dataflow.contracts import Contract
from repro.dataflow.graph import dynamic_path_nodes, iteration_body_nodes
# module objects, not names: see repro.iterations.supersteps
from repro.iterations import microstep_runtime, supersteps
from repro.iterations.solution_set import SolutionSetIndex
from repro.runtime import channels, drivers, fusion
from repro.runtime.plan import DELTA_SLOT, LocalStrategy


class _IterationScope:
    """Per-iteration execution state: bindings, caches, path classification."""

    def __init__(self, iteration, bindings, solution_index=None):
        self.iteration = iteration
        self.bindings = bindings
        self.solution_index = solution_index
        self.body_ids = {n.id for n in iteration_body_nodes(iteration)}
        self.dynamic_ids = {n.id for n in dynamic_path_nodes(iteration)}
        self.iter_memo: dict[int, list] = {}
        self.edge_cache: dict = {}
        self.table_cache: dict = {}


class IterationSummary:
    """Recorded outcome of one iteration construct's execution."""

    def __init__(self, name, supersteps, converged):
        self.name = name
        self.supersteps = supersteps
        self.converged = converged

    def __repr__(self):
        state = "converged" if self.converged else "NOT converged"
        return f"<{self.name}: {self.supersteps} supersteps, {state}>"


class Executor:
    """Interprets an :class:`~repro.runtime.plan.ExecutionPlan`."""

    def __init__(self, env):
        from repro.runtime.config import RuntimeConfig

        self.env = env
        self.parallelism = env.parallelism
        self.metrics = env.metrics
        self.tracer = env.metrics.tracer
        #: data-plane framing knob; every ship and keyed driver frames
        #: its work in batches of this many records
        self.config = getattr(env, "config", None) or RuntimeConfig()
        self.batch_size = self.config.batch_size
        #: where this executor runs: the local simulator context, or one
        #: SPMD worker's view of its forked peers (pool backends)
        self.cluster = getattr(env, "cluster", None) or LOCAL
        #: out-of-core substrate: a SpillManager when a memory budget is
        #: configured (every keyed driver and the solution set then run
        #: their spillable code paths), else None — no budget, no change
        self.spill = None
        if self.config.memory_budget_bytes:
            from repro.storage.session import StorageSession
            from repro.storage.spill import SpillManager

            session = getattr(env, "storage_session", None)
            if session is None:
                session = StorageSession()
                env.storage_session = session
            self.spill = SpillManager(
                self.config.memory_budget_bytes,
                self.cluster.storage_view(session), metrics=self.metrics,
            )
        self._memo: dict[int, list] = {}
        self.iteration_summaries: list[IterationSummary] = []
        #: live metric registry when telemetry is enabled, else None —
        #: the disabled path is a single attribute test per hook
        self.telemetry = self.metrics.telemetry
        #: step-memo residency after the most recent superstep (sampled
        #: by the telemetry probe: how many dynamic-path nodes held
        #: materialized partitions at the barrier)
        self._superstep_memo_nodes = 0

    def _telemetry_probes(self) -> list:
        """This job's superstep-boundary samplers (none when telemetry
        is off).  ``run`` registers them for its own duration only: the
        session's registry outlives the job, and a probe left behind
        would be polled by every later job and pin this executor."""
        if self.telemetry is None:
            return []
        probes = [self._telemetry_probe]
        if self.spill is not None:
            probes.append(self.spill.telemetry_probe)
        endpoint = getattr(self.cluster, "endpoint", None)
        if endpoint is not None:
            probes.append(endpoint.telemetry_probe)
        return probes

    def _telemetry_probe(self) -> dict:
        """Memo-residency gauges, polled at every superstep barrier."""
        return {
            "executor.memo_nodes": len(self._memo),
            "executor.step_memo_nodes": self._superstep_memo_nodes,
        }

    # ------------------------------------------------------------------
    # entry point

    def run(self, exec_plan) -> dict[int, list]:
        """Execute the plan; returns {sink node id: merged record list}."""
        self.plan = exec_plan
        probes = self._telemetry_probes()
        for probe in probes:
            self.telemetry.add_probe(probe)
        if self.telemetry is not None:
            self.telemetry.spill_track = self.spill is not None
        results = {}
        try:
            for sink in exec_plan.logical_plan.sinks:
                parts = self._evaluate(sink, self._memo, scope=None)
                results[sink.id] = channels.merge(parts)
            if self.telemetry is not None:
                self.telemetry.read_probes()
        finally:
            for probe in probes:
                self.telemetry.remove_probe(probe)
            if self.telemetry is not None:
                self.telemetry.spill_track = False
        # the run ends at a barrier, so the attribution totals must be
        # consistent: per-superstep counters + out-of-superstep remainder
        # sum to the global collector totals
        self.metrics.verify_invariants()
        return results

    # ------------------------------------------------------------------
    # recursive evaluation

    def _evaluate(self, node, step_memo, scope):
        memo = self._memo_for(node, step_memo, scope)
        cached = memo.get(node.id)
        if cached is not None:
            if memo is step_memo:
                self._note_step_read(node, step_memo, scope)
            return cached
        result = self._compute(node, step_memo, scope)
        memo[node.id] = result
        if memo is step_memo:
            self._note_step_read(node, step_memo, scope)
        return result

    def _memo_for(self, node, step_memo, scope):
        if scope is not None and node.id in scope.body_ids:
            if node.id in scope.dynamic_ids:
                return step_memo
            return scope.iter_memo
        return self._memo

    # ------------------------------------------------------------------
    # superstep-memo eviction
    #
    # The step memo would otherwise keep every dynamic node's full output
    # alive until the superstep barrier.  Each superstep starts with a
    # consumer-refcount per node (how many times the interpreter will
    # read it); the last read evicts the partitions immediately.  The
    # template may only ever *over*count reads (an unread entry is merely
    # retained until the barrier) — an undercount would evict live data
    # and recompute it, inflating logical counters.

    def _note_step_read(self, node, step_memo, scope):
        if scope is None:
            return
        counts = getattr(scope, "step_refcounts", None)
        if counts is None:
            return
        remaining = counts.get(node.id)
        if remaining is None:
            return
        if remaining <= 1:
            del counts[node.id]
            step_memo.pop(node.id, None)
        else:
            counts[node.id] = remaining - 1

    def _step_refcount_template(self, scope):
        cached = getattr(scope, "_refcount_template", None)
        if cached is not None:
            return cached
        counts: dict[int, int] = {}

        def bump(producer):
            # only dynamic body nodes live in the step memo (constant
            # nodes sit in iter_memo across supersteps, outer nodes in
            # the run-wide memo) — nothing else is evictable
            if (producer.id in scope.dynamic_ids
                    and producer.id in scope.body_ids):
                counts[producer.id] = counts.get(producer.id, 0) + 1

        for member in iteration_body_nodes(scope.iteration):
            if member.id in self.plan.fused_ids:
                continue  # never evaluated: fused into a chain interior
            chain = self.plan.chains.get(member.id)
            if chain is not None:
                # a chain tail reads its head's inputs and union taps
                reads = fusion.chain_reads(chain)
            else:
                reads = [
                    p for p in member.inputs
                    if p.contract is not Contract.SOLUTION_SET
                ]
            for producer in reads:
                bump(producer)
        # the executor reads iteration roots by name once per superstep
        iteration = scope.iteration
        if iteration.contract is Contract.BULK_ITERATION:
            bump(iteration.body_output)
            if iteration.termination is not None:
                bump(iteration.termination)
        else:
            bump(iteration.delta_output)
            bump(iteration.workset_output)
        scope._refcount_template = counts
        return counts

    def _compute(self, node, step_memo, scope):
        contract = node.contract
        if contract is Contract.SOURCE:
            return self._load_source(node)
        if node.is_placeholder():
            return self._resolve_placeholder(node, scope)
        chain = self.plan.chains.get(node.id)
        if chain is not None and chain.combine_node is None:
            # the tail of a fused chain: one chain span replaces the
            # operator span (combine chains key on the reduce and run
            # inside its combiner branch instead)
            return fusion.run_fused_chain(self, chain, step_memo, scope)
        # sources and placeholders stay span-free (pure memo/binding
        # lookups); everything else is a traced operator execution
        if self.tracer is None:
            return self._compute_node(node, step_memo, scope)
        span = self.tracer.begin(
            f"operator:{node.name}", category="operator",
            contract=contract.value,
        )
        try:
            return self._compute_node(node, step_memo, scope)
        finally:
            self.tracer.end(span)

    def _compute_node(self, node, step_memo, scope):
        contract = node.contract
        if contract is Contract.SINK:
            inputs = self._shipped_inputs(node, step_memo, scope)
            return inputs[0]
        if contract is Contract.BULK_ITERATION:
            return self._run_bulk_iteration(node, step_memo, scope)
        if contract is Contract.DELTA_ITERATION:
            return self._run_delta_iteration(node, step_memo, scope)
        if contract is Contract.SOLUTION_JOIN:
            return self._run_solution_join(node, step_memo, scope)
        if contract is Contract.SOLUTION_COGROUP:
            return self._run_solution_cogroup(node, step_memo, scope)
        if contract is Contract.MATCH:
            return self._run_match(node, step_memo, scope)
        return self._run_generic(node, step_memo, scope)

    def _load_source(self, node):
        if node.data is None:
            raise InvalidPlanError(f"source {node.name} has no data")
        return self.cluster.localize(
            channels.round_robin(node.data, self.parallelism)
        )

    def _ship(self, partitions, strategy):
        """Ship through this executor's cluster context."""
        return channels.ship(
            partitions, strategy, self.parallelism, self.metrics,
            cluster=self.cluster, batch_size=self.batch_size,
        )

    def _resolve_placeholder(self, node, scope):
        found_scope = scope
        while found_scope is not None and node.id not in found_scope.bindings:
            found_scope = getattr(found_scope, "parent", None)
        if found_scope is None:
            raise InvalidPlanError(
                f"placeholder {node.name} evaluated outside its iteration"
            )
        return found_scope.bindings[node.id]

    # ------------------------------------------------------------------
    # shipping with constant-path edge caching

    def _shipped_inputs(self, node, step_memo, scope):
        pushed = self.plan.pushed_filters.get(node.id)
        shipped = []
        for idx, producer in enumerate(node.inputs):
            if producer.contract is Contract.SOLUTION_SET:
                shipped.append(None)
                continue
            predicate = None
            if pushed is not None and pushed.side == idx:
                predicate = pushed.filter_node.udf
            shipped.append(self._ship_one_input(
                node, idx, step_memo, scope, predicate
            ))
        return shipped

    def _ship_one_input(self, node, idx, step_memo, scope, predicate=None):
        """Evaluate and ship input ``idx`` as the plan says, through the
        edge cache where the edge is constant (Section 4.3)."""
        strategy = self.plan.ship_strategy(node, idx)
        producer = node.inputs[idx]
        cacheable = self._edge_is_constant(node, producer, scope)
        cache_key = (node.id, idx)
        if cacheable and cache_key in scope.edge_cache:
            self.metrics.add_cache_hit()
            return scope.edge_cache[cache_key]
        parts = self._evaluate(producer, step_memo, scope)
        if predicate is not None:
            # filter pushdown: drop records the post-join filter
            # would discard anyway, before they pay ship and probe
            # cost.  Silent by design — the filter node still runs
            # post-join (filters are idempotent), so operator spans
            # and logical counters sit where the un-pushed plan has
            # them (see repro.optimizer.pushdown)
            parts = [drivers.filter_records(predicate, part)
                     for part in parts]
        routed = self._ship(parts, strategy)
        if cacheable:
            scope.edge_cache[cache_key] = routed
            self.metrics.add_cache_build()
        return routed

    def _edge_is_constant(self, consumer, producer, scope) -> bool:
        """True if the producer's data is constant across supersteps while
        the consumer re-executes — the caching point of Section 4.3."""
        return (
            scope is not None
            and consumer.id in scope.dynamic_ids
            and producer.id not in scope.dynamic_ids
            and not producer.is_placeholder()
        )

    # ------------------------------------------------------------------
    # operator execution

    def _run_generic(self, node, step_memo, scope):
        ann = self.plan.annotation(node)
        if ann.combiner and node.contract is Contract.REDUCE:
            # combiners run *before* shipping, so only the pre-aggregated
            # (smaller) data pays network cost (cf. Combiners, Sec. 6.1)
            chain = self.plan.chains.get(node.id)
            if chain is not None:
                # fused upstream spine: the combine pass runs in-stream
                combined = fusion.run_fused_chain(
                    self, chain, step_memo, scope
                )
            else:
                raw = self._evaluate(node.inputs[0], step_memo, scope)
                combined = drivers.apply_combiner(
                    node, raw, self.metrics, batch_size=self.batch_size
                )
            shipped = [self._ship(combined, self.plan.ship_strategy(node, 0))]
        else:
            shipped = self._shipped_inputs(node, step_memo, scope)
        out = []
        for p in range(self.parallelism):
            inputs = [s[p] for s in shipped]
            out.append(drivers.run_driver(
                node, ann.local, inputs, self.metrics,
                batch_size=self.batch_size, spill=self.spill,
            ))
        return out

    def _run_match(self, node, step_memo, scope):
        """Match with optional constant-side build-table caching (Fig. 4)."""
        ann = self.plan.annotation(node)
        build_left = ann.local is LocalStrategy.HASH_BUILD_LEFT
        build_right = ann.local is LocalStrategy.HASH_BUILD_RIGHT
        if not (build_left or build_right) or scope is None:
            return self._run_generic(node, step_memo, scope)
        build_idx = 0 if build_left else 1
        producer = node.inputs[build_idx]
        if not self._edge_is_constant(node, producer, scope):
            return self._run_generic(node, step_memo, scope)

        sides = scope.table_cache.get(node.id)
        if sides is None:
            shipped = self._ship_one_input(node, build_idx, step_memo, scope)
            # supersteps re-probe the cached side, paying its stable
            # sort once
            sides = [drivers.BuildSide(part, node.key_fields[build_idx])
                     for part in shipped]
            scope.table_cache[node.id] = sides
            self.metrics.add_cache_build()
            self.metrics.add_processed(node.name, sum(len(p) for p in shipped))
        else:
            self.metrics.add_cache_hit()

        probe_idx = 1 - build_idx
        probe_parts = self._ship_one_input(node, probe_idx, step_memo, scope)
        flat = getattr(node, "flat", False)
        out = []
        for side, part in zip(sides, probe_parts):
            self.metrics.add_processed(node.name, len(part))
            out.append(side.probe(
                part, node.key_fields[probe_idx], node.udf, build_left, flat,
                self.batch_size,
            ))
        return out

    # ------------------------------------------------------------------
    # stateful solution-set operators (Section 5.3)

    def _solution_scope(self, node, scope):
        iteration = getattr(node, "enclosing_iteration", None)
        found = scope
        while found is not None and (
            found.solution_index is None or found.iteration is not iteration
        ):
            found = getattr(found, "parent", None)
        if found is None:
            raise InvalidPlanError(
                f"{node.name}: solution set accessed outside its iteration"
            )
        return found

    def _run_solution_join(self, node, step_memo, scope):
        index = self._solution_scope(node, scope).solution_index
        probe_parts = self._ship_one_input(node, 0, step_memo, scope)
        fn = node.udf
        flat = getattr(node, "flat", False)
        checker = self.metrics.invariants
        out = []
        for p, part in enumerate(probe_parts):
            get = index._partitions[p].get
            results = []
            for records, keys in drivers._key_chunks(
                part, node.key_fields[0], self.batch_size
            ):
                if checker is not None:
                    self._audit_probes(checker, p, keys)
                for probe, stored in zip(records, map(get, keys)):
                    if stored is not None:
                        drivers._emit_join_result(
                            fn(probe, stored), flat, results
                        )
            self.metrics.add_processed(node.name, len(part))
            self.metrics.add_solution_access(len(part))
            out.append(results)
        return out

    def _run_solution_cogroup(self, node, step_memo, scope):
        index = self._solution_scope(node, scope).solution_index
        probe_parts = self._ship_one_input(node, 0, step_memo, scope)
        fn = node.udf
        inner = getattr(node, "inner", True)
        checker = self.metrics.invariants
        out = []
        for p, part in enumerate(probe_parts):
            groups = drivers.group_by_key(
                part, node.key_fields[0], self.batch_size
            )
            self.metrics.add_processed(node.name, len(part))
            self.metrics.add_solution_access(len(groups))
            if checker is not None:
                self._audit_probes(checker, p, groups)
            results = []
            stored_values = map(index._partitions[p].get, groups)
            for (key_value, group), stored in zip(groups.items(),
                                                  stored_values):
                if stored is not None:
                    results.extend(fn(key_value, group, [stored]))
                elif not inner:
                    results.extend(fn(key_value, group, []))
                # else: InnerCoGroup semantics (Fig. 5) drop the group
            out.append(results)
        return out

    def _audit_probes(self, checker, partition, keys):
        """Every run-wise probe must hit the partition owning its key."""
        for key_value in keys:
            checker.check_solution_lookup(partition, key_value,
                                          self.parallelism)

    # ------------------------------------------------------------------
    # bulk iterations (Section 4)

    def _run_bulk_iteration(self, node, outer_memo, outer_scope):
        placeholder_id = node.placeholder.id
        bindings = {
            placeholder_id: self._evaluate(
                node.inputs[0], outer_memo, outer_scope
            )
        }
        scope = _IterationScope(node, bindings=bindings)
        scope.parent = outer_scope

        def restore(checkpoint):
            bindings[placeholder_id] = checkpoint.state

        def body(step):
            current = bindings[placeholder_id]
            step_memo = {}
            scope.step_refcounts = dict(self._step_refcount_template(scope))
            new_parts = self._evaluate(node.body_output, step_memo, scope)
            stop = False
            if node.termination is not None:
                term_parts = self._evaluate(
                    node.termination, step_memo, scope
                )
                # barrier vote: the criterion's global record count
                stop = self.cluster.allreduce_sum(
                    sum(len(p) for p in term_parts)
                ) == 0
                if self.tracer is not None:
                    self.tracer.instant(
                        "iteration:termination", category="iteration",
                        stop=stop,
                    )
            elif node.convergence_check is not None:
                stop = node.convergence_check(
                    self.cluster.merge_global(current),
                    self.cluster.merge_global(new_parts),
                )
                if self.tracer is not None:
                    self.tracer.instant(
                        "iteration:convergence", category="iteration",
                        stop=stop,
                    )
            if self.telemetry is not None:
                self._superstep_memo_nodes = len(step_memo)
            bindings[placeholder_id] = new_parts
            return stop, {"delta_size": sum(len(p) for p in new_parts)}

        converged, steps = supersteps.run_supersteps(
            self, node.max_iterations, None,
            lambda: (bindings[placeholder_id], None), restore, body,
        )
        fixed_trip_count = (
            node.termination is None and node.convergence_check is None
        )
        self.iteration_summaries.append(
            IterationSummary(node.name, steps, converged or fixed_trip_count)
        )
        return bindings[placeholder_id]

    # ------------------------------------------------------------------
    # delta iterations (Section 5)

    def _run_delta_iteration(self, node, outer_memo, outer_scope):
        mode = self.plan.iteration_modes[node.id]
        sol_parts = self._evaluate(node.inputs[0], outer_memo, outer_scope)
        # route the initial solution set into its index partitioning
        routed = self._ship(sol_parts, self.plan.ship_strategy(node, 0))
        if self.spill is not None:
            from repro.iterations.solution_set import (
                DiskBackedSolutionSetIndex,
            )

            index = DiskBackedSolutionSetIndex.build(
                routed, node.solution_key, self.parallelism,
                metrics=self.metrics, should_replace=node.should_replace,
                batch_size=self.batch_size, manager=self.spill,
            )
        else:
            index = SolutionSetIndex.build(
                routed, node.solution_key, self.parallelism,
                metrics=self.metrics, should_replace=node.should_replace,
                batch_size=self.batch_size,
            )
        workset = self._evaluate(node.inputs[1], outer_memo, outer_scope)
        scope = _IterationScope(
            node,
            bindings={node.workset_placeholder.id: workset},
            solution_index=index,
        )
        scope.parent = outer_scope
        if mode == "superstep":
            converged, steps = self._delta_supersteps(node, scope, index)
        else:
            converged, steps = microstep_runtime.run_microsteps(
                self, node, scope, index,
                limit=(None if mode == "microstep"
                       else self.config.async_poll_batch),
            )
        self.iteration_summaries.append(
            IterationSummary(node.name, steps, converged)
        )
        return index.to_partitions()

    def _delta_supersteps(self, node, scope, index):
        bindings = scope.bindings
        workset_id = node.workset_placeholder.id

        def vote():
            # barrier vote (Section 5.3): global workset size
            return self.cluster.allreduce_sum(
                sum(len(p) for p in bindings[workset_id])
            )

        def pending():
            workset_size = vote()
            if self.tracer is not None:
                self.tracer.instant(
                    "iteration:workset-vote", category="iteration",
                    size=workset_size,
                )
            return workset_size

        def restore(checkpoint):
            index._partitions = checkpoint.state
            bindings[workset_id] = checkpoint.workset

        def body(step):
            next_workset, applied = self._delta_one_superstep(
                node, scope, index
            )
            bindings[workset_id] = next_workset
            return False, {
                "workset_size": sum(len(p) for p in next_workset),
                "delta_size": applied,
            }

        converged, steps = supersteps.run_supersteps(
            self, node.max_iterations, pending,
            lambda: (index._partitions, bindings[workset_id]),
            restore, body,
        )
        # out of supersteps: one last vote, outside the traced protocol
        return converged or vote() == 0, steps

    def _delta_one_superstep(self, node, scope, index):
        """Evaluate Δ once: returns (next workset, applied delta count)."""
        step_memo = {}
        scope.step_refcounts = dict(self._step_refcount_template(scope))
        delta_parts = self._evaluate(node.delta_output, step_memo, scope)
        # Stage the delta: place it on the solution key's partitions,
        # resolve collisions with the comparator, but do not mutate S
        # until the barrier.
        routed = self._ship(
            delta_parts, self.plan.ship_strategy(node, DELTA_SLOT)
        )
        staged, accepted_parts = self._stage_delta(node, index, routed)
        # The next workset observes only the records that will make it
        # into S (Section 5.1: dropped records are discarded from D).
        step_memo[node.delta_output.id] = accepted_parts
        next_workset = self._evaluate(node.workset_output, step_memo, scope)
        applied = self._commit_delta(index, staged)
        if self.telemetry is not None:
            self._superstep_memo_nodes = len(step_memo)
        return next_workset, applied

    def _stage_delta(self, node, index, routed_parts):
        """Resolve ∪̇ winners per partition without touching S yet.  A key
        is probed in S until a record for it is staged (so the record
        after a rejected one probes again); probes count per partition."""
        metrics, checker = self.metrics, self.metrics.invariants
        should_replace = node.should_replace
        staged = []
        for p, part in enumerate(routed_parts):
            get = index._partitions[p].get
            winners: dict = {}
            probes = 0
            accesses_before = metrics.solution_accesses
            for records, keys in drivers._key_chunks(
                part, node.solution_key, self.batch_size
            ):
                if checker is not None:
                    self._audit_probes(checker, p, keys)
                for k, record in zip(keys, records):
                    incumbent = winners.get(k)
                    if incumbent is None:
                        incumbent = get(k)
                        probes += 1
                    if (
                        incumbent is not None
                        and should_replace is not None
                        and not should_replace(record, incumbent)
                    ):
                        continue
                    winners[k] = record
            metrics.add_solution_access(probes)
            if checker is not None:  # staging reads S, accepts nothing
                checker.check_delta_application(
                    "stage_delta", 0, 0, 0, 0, probed=probes,
                    accesses_counted=(
                        metrics.solution_accesses - accesses_before),
                )
            staged.append(winners)
        return staged, [list(winners.values()) for winners in staged]

    def _commit_delta(self, index, staged) -> int:
        checker = self.metrics.invariants
        size_before = len(index) if checker is not None else 0
        applied = 0
        replaced = 0
        for p, winners in enumerate(staged):
            part = index._partitions[p]
            for k, record in winners.items():
                if checker is not None and k in part:
                    replaced += 1
                part[k] = record
                applied += 1
        index.note_writes()
        if applied:
            self.metrics.add_solution_update(applied)
        if checker is not None:
            checker.check_delta_application(
                "commit_delta", size_before, len(index),
                accepted=applied, replaced=replaced,
            )
        return applied

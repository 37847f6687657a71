"""Microstep execution of delta iterations (Section 5.2, Figure 6).

Section 5.2 asks for per-key atomicity, not per-record dispatch: each
workset element must see the solution set as every earlier element left
it.  So a queue is drained one *run* at a time — the whole queue, or the
next slice an asynchronous poll may take — and the run goes through a
compiled run pipeline:

* the delta chain is one **arrival-order fold**: stateless stages run
  over the whole run, then record by record the fold probes the
  partition's mapping, calls the access UDF, pushes the results through
  the stages after the access and applies ∪̇ (``should_replace`` against
  the record stored *now*).  Analysis condition 4 proves the probe key
  equals the delta key, so this is the per-record sequence of updates
  exactly, with no key grouping and no re-sort;
* the workset chain (stateless by analysis) runs over the accepted
  deltas, and the run's emissions are routed in one vectorised pass.

Solution-set accesses, updates, processed and shipped records are
counted once per run; with an invariant checker attached, every probe
and write key is audited against the draining partition and each run's
∪̇ against the size law.

One loop runs both modes on every cluster context: rounds of the
superstep protocol, each draining the queues of the partitions the
context *owns* and handing the buffered emissions to ``cluster.route``,
so the simulator (owns all, route is the identity) and an SPMD worker
(owns one, route is an exchange) run the same code.

* ``mode="microstep"`` drains every queue whole and buffers every
  produced workset record until the superstep barrier (the buffering
  queues of Figure 6);
* ``mode="async"`` drains at most ``async_poll_batch`` records per
  partition per round.  A record a partition emits for itself enters its
  queue at once, visible to the same poll; every other emission is
  delivered at the end of the round.  A message that arrives one poll
  later is still a legal asynchronous schedule, and per-key atomicity is
  all Section 5.2 asks for, so the rounds are bounded-drain supersteps:
  the barrier vote ends them, and they checkpoint and recover like any
  other superstep.

See :mod:`repro.iterations.supersteps` for the import cycle this module
sits in and the two rules that keep it harmless.
"""

from __future__ import annotations

from collections import deque

from repro.common.batch import RecordBatch
from repro.common.errors import MicrostepViolation
from repro.common.keys import KeyExtractor
from repro.dataflow.contracts import Contract
from repro.iterations import supersteps
from repro.iterations.microstep import analyze_microstep
from repro.runtime import channels, drivers
from repro.runtime.plan import partition_on


def run_microsteps(executor, node, scope, index, limit):
    """Run a delta iteration per element; returns ``(converged, steps)``.

    ``limit`` is the records one partition may drain per round: ``None``
    for ``microstep``, the asynchronous poll size for ``async``.
    """
    report = analyze_microstep(node).raise_if_ineligible()
    if executor.tracer is not None:
        executor.tracer.instant(
            "microstep:analysis", category="iteration",
            **report.span_attributes(),
        )
    # chain compilation ships the constant sides (Match/Cross build
    # tables) — under SPMD every worker runs these collectives in
    # lockstep before any queue exists
    pipeline = _compile_pipeline(executor, scope, report)
    route_fields = report.workset_route_fields or node.solution_key
    queues = _seed_queues(
        executor, scope.bindings[node.workset_placeholder.id], route_fields
    )
    return _micro_supersteps(
        executor, node, index, queues, route_fields, pipeline, limit
    )


def _route_workset(executor, frames):
    """``cluster.route`` for workset records, wire bytes attributed here."""
    cluster = executor.cluster
    bytes_before = cluster.bytes_sent
    routed = cluster.route(frames)
    executor.metrics.add_bytes_shipped(cluster.bytes_sent - bytes_before)
    return routed


def _seed_queues(executor, initial, route_fields):
    """Route the initial workset into one queue per partition.

    The ship channel's hash framer without its span, batch count or
    audit: one hash vector per chunk, same queue contents and counter
    totals as per-record enqueue.  Each context frames the partitions it
    owns; routing delivers them in source-ascending order, which is
    where a scan over all partitions places them.
    """
    frames, local, remote, _batches = channels.frame(
        initial, executor.cluster.owned_partitions(executor.parallelism),
        partition_on(route_fields), executor.batch_size,
    )
    queues = [
        deque(part) for part in _route_workset(executor, frames)
    ]
    executor.metrics.add_shipped(local=local, remote=remote)
    return queues


def _scatter(executor, records, source, route_fields, into):
    """Append a run's emissions to ``into[target]`` in emission order and
    count them shipped, local or remote to ``source``."""
    targets = RecordBatch.wrap(records, route_fields).partition_targets(
        executor.parallelism
    )
    for target, record in zip(targets, records):
        into[target].append(record)
    local = targets.count(source)
    executor.metrics.add_shipped(local=local, remote=len(targets) - local)


def _drain_queue(queue, partition, pipeline, route, limit=None):
    """Drain one partition's queue run by run; returns the records taken.

    A run is the whole queue, or under ``limit`` (an asynchronous poll)
    the next ``limit - processed`` records.  ``pipeline(partition, run)``
    folds the run through the solution set in arrival order and returns
    its emissions; ``route(emissions, partition)`` delivers them in one
    pass and counts them.  Emissions routed back into ``queue`` are
    drained by the same loop while the poll has budget left — FIFO,
    exactly where record-at-a-time dispatch would have taken them.
    """
    processed = 0
    while queue and (limit is None or processed < limit):
        take = len(queue)
        if limit is not None:
            take = min(take, limit - processed)
        if take == len(queue):
            run = list(queue)
            queue.clear()
        else:
            run = [queue.popleft() for _ in range(take)]
        processed += take
        emitted = pipeline(partition, run)
        if emitted:
            route(emitted, partition)
    return processed


def _micro_supersteps(executor, node, index, queues, route_fields,
                      pipeline, limit):
    """The rounds of the module docstring, ``limit`` records per poll.

    A self-targeted emission is one for the *draining partition*, not
    for any partition this context owns: only that rule gives the
    simulator (owns all) and an SPMD worker (owns one) the same
    schedule.  A snapshot logs the solution-set partitions plus the
    queues, and a failure replays from the latest log.
    """
    cluster = executor.cluster
    metrics = executor.metrics
    parallelism = executor.parallelism
    owned = cluster.owned_partitions(parallelism)
    label = f"{node.name}.microstep"

    def pending():
        return cluster.allreduce_sum(sum(len(q) for q in queues))

    def restore(checkpoint):
        index._partitions = checkpoint.state
        for queue, records in zip(queues, checkpoint.workset):
            queue.clear()
            queue.extend(records)

    def body(step):
        buffers = [[] for _ in range(parallelism)]
        updates_before = metrics.solution_updates
        for p in owned:
            into = buffers
            if limit is not None:
                into = buffers.copy()
                into[p] = queues[p]
            count = _drain_queue(
                queues[p], p, pipeline,
                lambda records, source: _scatter(
                    executor, records, source, route_fields, into
                ),
                limit,
            )
            metrics.add_processed(label, count)
        # concatenating the frames in source-rank order reproduces, on
        # every context, the queue contents of a scan over all partitions
        routed = _route_workset(executor, buffers)
        for p in owned:
            queues[p].extend(routed[p])
        return False, {
            "workset_size": sum(len(queues[p]) for p in owned),
            "delta_size": metrics.solution_updates - updates_before,
        }

    max_steps = node.max_iterations
    if limit is not None:
        # a bounded drain needs more rounds than supersteps: the cap on
        # poll-starved runs scales with the seeded workset
        max_steps *= max(1, pending())
    converged, steps = supersteps.run_supersteps(
        executor, max_steps, pending,
        lambda: (index._partitions, [list(q) for q in queues]),
        restore, body,
    )
    return converged or pending() == 0, steps


# ----------------------------------------------------------------------
# pipeline compilation


def _compile_pipeline(executor, scope, report):
    """``pipeline(partition, run) -> emissions``: the delta chain's fold,
    then the workset chain over the run's accepted deltas."""
    fold = _compile_fold(executor, scope, report.chain_to_delta)
    to_workset = _compile_chain(executor, scope, report.chain_to_workset)

    def pipeline(partition, run):
        return _run_chain(to_workset, partition, fold(partition, run))

    return pipeline


def _compile_fold(executor, scope, chain):
    """Compile the delta chain into ``fold(partition, run) -> accepted``,
    the arrival-order fold of the module docstring.

    A probe miss or a ``None`` result drops the record, a flat access
    UDF yields several deltas, and without an access every record that
    reaches the end of the chain is a delta.  The partition's mapping is
    read and written directly: analysis condition 4 keeps every key in
    the draining partition, which the invariant checker audits.
    """
    index = scope.solution_index
    metrics = executor.metrics
    parallelism = executor.parallelism
    access_at = next(
        (pos for pos, op in enumerate(chain)
         if op.contract is Contract.SOLUTION_JOIN),
        len(chain),
    )
    pre = _compile_chain(executor, scope, chain[:access_at])
    post = _compile_chain(executor, scope, chain[access_at + 1:])
    access = chain[access_at] if access_at < len(chain) else None
    solution_key = index.key._getter
    if access is not None:
        probe_key = KeyExtractor(access.key_fields[0])._getter
        udf = access.udf
        flat = getattr(access, "flat", False)

    def fold(partition, run):
        records = _run_chain(pre, partition, run)
        part = index._partitions[partition]
        get = part.get
        should_replace = index.should_replace
        checker = metrics.invariants
        if checker is not None:
            size_before = len(part)
            accesses_before = metrics.solution_accesses
            if access is not None:
                for key in map(probe_key, records):
                    checker.check_solution_lookup(partition, key, parallelism)
        accepted = []
        delta_probes = replaced = 0
        for record in records:
            if access is None:
                deltas = (record,)
            else:
                stored = get(probe_key(record))
                if stored is None:
                    continue
                result = udf(record, stored)
                if result is None:
                    continue
                deltas = result if flat else (result,)
                if post:
                    deltas = _run_chain(post, partition, list(deltas))
            for delta in deltas:
                delta_probes += 1
                key = solution_key(delta)
                old = get(key)
                if old is not None:
                    if should_replace is not None and not should_replace(
                        delta, old
                    ):
                        continue
                    replaced += 1
                part[key] = delta
                accepted.append(delta)
        index.note_writes()
        probes = len(records) if access is not None else 0
        metrics.add_solution_access(probes + delta_probes)
        metrics.add_solution_update(len(accepted))
        if checker is not None:
            for key in map(solution_key, accepted):
                checker.check_solution_lookup(partition, key, parallelism)
            checker.check_delta_application(
                "microstep", size_before, len(part),
                accepted=len(accepted), replaced=replaced,
                probed=delta_probes,
                accesses_counted=(
                    metrics.solution_accesses - accesses_before - probes
                ),
            )
        return accepted

    return fold


def _compile_chain(executor, scope, chain):
    """Compile stateless operators into run stages ``(p, records) ->
    records``, each the concatenation of its per-record outputs.

    Constant-side inputs of binary operators (e.g. the topology table N)
    are shipped once per their plan annotation and materialized as
    per-partition hash tables (Match) or record lists (Cross).
    """
    return [_compile_stage(executor, scope, op) for op in chain]


def _compile_stage(executor, scope, op):
    contract = op.contract
    kernel = drivers.RECORD_KERNELS.get(contract)
    if kernel is not None:
        fn = op.udf
        return lambda p, records: kernel(fn, records)
    if contract is Contract.MATCH:
        return _compile_match_stage(executor, scope, op)
    if contract is Contract.CROSS:
        return _compile_cross_stage(executor, scope, op)
    raise MicrostepViolation(
        f"{op.name}: contract {contract.value} cannot run as a microstep stage"
    )


def _dynamic_input_of(scope, op) -> int:
    """The input slot carrying the per-record (dynamic-path) stream.

    Placeholders and all dynamic-path nodes — including the delta output,
    which seeds the workset chain — qualify; the other side is constant.
    """
    first = op.inputs[0]
    if first.is_placeholder() or first.id in scope.dynamic_ids:
        return 0
    return 1


def _compile_match_stage(executor, scope, op):
    dyn_idx = _dynamic_input_of(scope, op)
    const_first = dyn_idx == 1
    shipped = executor._ship_one_input(op, 1 - dyn_idx, scope.iter_memo,
                                       scope)
    tables = [
        drivers.group_by_key(
            part, op.key_fields[1 - dyn_idx], executor.batch_size
        )
        for part in shipped
    ]
    dyn_key = KeyExtractor(op.key_fields[dyn_idx])._getter
    fn = op.udf
    flat = getattr(op, "flat", False)

    def match_run(p, records):
        get = tables[p].get
        out = []
        emit = out.extend if flat else out.append
        for record in records:
            for other in get(dyn_key(record), ()):
                result = (
                    fn(other, record) if const_first else fn(record, other)
                )
                if result is not None:
                    emit(result)
        return out

    return match_run


def _compile_cross_stage(executor, scope, op):
    dyn_idx = _dynamic_input_of(scope, op)
    const_first = dyn_idx == 1
    shipped = executor._ship_one_input(op, 1 - dyn_idx, scope.iter_memo,
                                       scope)
    fn = op.udf

    def cross_run(p, records):
        side = shipped[p]
        out = []
        for record in records:
            for other in side:
                result = (
                    fn(other, record) if const_first else fn(record, other)
                )
                if result is not None:
                    out.append(result)
        return out

    return cross_run


def _run_chain(stages, partition, records):
    for stage in stages:
        if not records:
            break
        records = stage(partition, records)
    return records

"""Microstep execution of delta iterations (Section 5.2, Figure 6).

Each workset element flows through a compiled record-at-a-time pipeline
and updates the solution set immediately.  Three loops share the
pipeline, the queue drain and the seeding:

* **with supersteps** (``mode="microstep"``) — produced workset records
  are buffered and delivered at the superstep barrier (the buffering
  queues of Figure 6).  One loop serves every cluster context: it drains
  the queues of the partitions it *owns* and hands its buffers to
  ``cluster.route``, so the simulator (owns all, route is the identity)
  and an SPMD worker (owns one, route is an exchange) run the same code;
* **asynchronous, in-process** (``mode="async"`` where one context owns
  every partition) — FIFO queues polled round-robin, termination by
  acknowledgement counting, rounds as checkpointable pseudo-supersteps;
* **asynchronous, token ring** (``mode="async"`` across SPMD workers) —
  the same protocol serialized over a circulating token.  The one
  deliberate fork: a round's superstep stays open until the worker's
  next turn, so it cannot use the superstep driver and has no checkpoint
  support (the backend refuses such a job before shipping it).

See :mod:`repro.iterations.supersteps` for the import cycle this module
sits in and the two rules that keep it harmless.
"""

from __future__ import annotations

from collections import deque

from repro.common.errors import MicrostepViolation
from repro.common.hashing import partition_index
from repro.common.keys import KeyExtractor
from repro.dataflow.contracts import Contract
from repro.iterations import supersteps
from repro.iterations.microstep import analyze_microstep
from repro.iterations.termination import AsyncTerminationDetector
from repro.runtime import channels, drivers
from repro.runtime.plan import partition_on


def run_microsteps(executor, node, scope, index, synchronous):
    """Run a delta iteration per element; returns ``(converged, steps)``."""
    report = analyze_microstep(node).raise_if_ineligible()
    if executor.tracer is not None:
        executor.tracer.instant(
            "microstep:analysis", category="iteration",
            **report.span_attributes(),
        )
    # chain compilation ships the constant sides (Match/Cross build
    # tables) — under SPMD every worker runs these collectives in
    # lockstep before any queue exists
    to_delta = _compile_chain(executor, scope, report.chain_to_delta)
    to_workset = _compile_chain(executor, scope, report.chain_to_workset)
    route_fields = report.workset_route_fields or node.solution_key
    route_key = KeyExtractor(route_fields)
    if not synchronous and executor.cluster.size > 1:
        return _token_ring(
            executor, node, scope, index, route_key, to_delta, to_workset
        )
    queues = _seed_queues(
        executor, scope.bindings[node.workset_placeholder.id], route_fields
    )
    if synchronous:
        return _micro_supersteps(
            executor, node, index, queues, route_key, route_fields,
            to_delta, to_workset,
        )
    return _micro_async(
        executor, node, index, queues, route_key, to_delta, to_workset
    )


def _route_workset(executor, frames, route_fields):
    """``cluster.route`` for workset records, wire bytes attributed here."""
    cluster = executor.cluster
    bytes_before = cluster.bytes_sent
    routed = cluster.route(
        frames, batch_size=executor.batch_size,
        max_frame_bytes=executor.max_frame_bytes,
        columnar=executor.columnar, key_fields=route_fields,
    )
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
        columnar=executor.columnar,
    )
    queues = [
        deque(part) for part in _route_workset(executor, frames, route_fields)
    ]
    executor.metrics.add_shipped(local=local, remote=remote)
    return queues


def _drain_queue(queue, partition, index, to_delta, to_workset, emit,
                 limit=None):
    """Process up to ``limit`` elements of one partition's queue.

    This is the microstep hot loop; per-element work is kept to the
    compiled pipeline stages and the immediate ∪̇ point update.
    Returns the number of elements processed.
    """
    processed = 0
    apply_record = index.apply_record
    popleft = queue.popleft
    if len(to_delta) == 1 and len(to_workset) == 1:
        # fast path for the common shape (one update operator, one
        # workset operator — e.g. the CC/SSSP Match plans)
        delta_stage = to_delta[0]
        workset_stage = to_workset[0]
        while queue and (limit is None or processed < limit):
            record = popleft()
            processed += 1
            for delta_record in delta_stage(partition, record):
                accepted = apply_record(delta_record)
                if accepted is None:
                    continue
                for produced in workset_stage(partition, accepted):
                    emit(produced, partition)
        return processed
    while queue and (limit is None or processed < limit):
        record = popleft()
        processed += 1
        deltas = _run_chain(to_delta, partition, [record])
        for delta_record in deltas:
            accepted = apply_record(delta_record)
            if accepted is None:
                continue
            for produced in _run_chain(to_workset, partition, [accepted]):
                emit(produced, partition)
    return processed


def _restore_queues(queues, saved):
    for queue, records in zip(queues, saved):
        queue.clear()
        queue.extend(records)


def _micro_supersteps(executor, node, index, queues, route_key,
                      route_fields, to_delta, to_workset):
    """Per-element processing with superstep-buffered queues (Fig. 6).

    Supports the same checkpoint/recovery protocol as the batch modes:
    a snapshot logs the solution-set partitions plus the buffered
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
        _restore_queues(queues, checkpoint.workset)

    def body(step):
        buffers = [[] for _ in range(parallelism)]
        shipped = [0, 0]  # local, remote

        def emit(record, source):
            target = partition_index(route_key(record), parallelism)
            buffers[target].append(record)
            shipped[target != source] += 1

        updates_before = metrics.solution_updates
        for p in owned:
            count = _drain_queue(
                queues[p], p, index, to_delta, to_workset, emit
            )
            metrics.add_processed(label, count)
        metrics.add_shipped(local=shipped[0], remote=shipped[1])
        # concatenating the frames in source-rank order reproduces, on
        # every context, the queue contents of a scan over all partitions
        routed = _route_workset(executor, buffers, route_fields)
        for p in owned:
            queues[p].extend(routed[p])
        return False, {
            "workset_size": sum(len(b) for b in buffers),
            "delta_size": metrics.solution_updates - updates_before,
        }

    converged, steps = supersteps.run_supersteps(
        executor, node.max_iterations, pending,
        lambda: (index._partitions, [list(q) for q in queues]),
        restore, body,
    )
    return converged or pending() == 0, steps


def _micro_async(executor, node, index, queues, route_key, to_delta,
                 to_workset):
    """Fully asynchronous FIFO execution with termination detection.

    Partitions are polled round-robin, each draining a bounded batch
    per poll — an interleaving that a real asynchronous cluster could
    produce.  Rounds are recorded as pseudo-supersteps for reporting.
    Runs only where one context owns every partition: an emitted record
    goes straight into its target's queue.

    Checkpoints snapshot the solution-set partitions plus the queues
    *and* the termination detector's counters — restoring the queues
    without the matching sent/acked state would deadlock or
    terminate early.
    """
    metrics = executor.metrics
    parallelism = executor.parallelism
    batch = executor.config.async_poll_batch
    label = f"{node.name}.microstep"
    detector = AsyncTerminationDetector(parallelism)
    detector.sent(sum(len(q) for q in queues))

    def enqueue(record, source_partition):
        target = partition_index(route_key(record), parallelism)
        queues[target].append(record)
        detector.sent()
        if target == source_partition:
            metrics.add_shipped(local=1, remote=0)
        else:
            metrics.add_shipped(local=0, remote=1)

    def restore(checkpoint):
        index._partitions = checkpoint.state
        saved_queues, detector_state = checkpoint.workset
        _restore_queues(queues, saved_queues)
        detector.restore_state(detector_state)

    def body(step):
        updates_before = metrics.solution_updates
        for p in range(parallelism):
            queue = queues[p]
            detector.set_idle(p, False)
            taken = _drain_queue(
                queue, p, index, to_delta, to_workset, enqueue, limit=batch
            )
            metrics.add_processed(label, taken)
            detector.acked(taken)
            detector.set_idle(p, len(queue) == 0)
        return False, {
            "workset_size": sum(len(q) for q in queues),
            "delta_size": metrics.solution_updates - updates_before,
        }

    _converged, rounds = supersteps.run_supersteps(
        executor,
        # the cap on detector-starved runs
        node.max_iterations * (detector.sent_count or 1),
        lambda: not detector.terminated,
        lambda: (
            index._partitions,
            ([list(q) for q in queues], detector.snapshot_state()),
        ),
        restore, body,
    )
    return detector.terminated, rounds


def _token_ring(executor, node, scope, index, route_key, to_delta,
                to_workset):
    """One worker's side of asynchronous execution: a token ring.

    Workers take turns in rank order; the circulating token carries
    the in-flight records (tagged with the round they were emitted
    in), the termination detector's counters, and the round number.
    Exactly one worker is active at a time, so the execution is a
    deterministic serialization of the asynchronous protocol — and a
    record-for-record replay of the simulator's round-robin polling:
    a record emitted by worker ``s`` in round ``k`` reaches worker
    ``r`` within round ``k`` iff ``s < r``, which is precisely when
    the simulator's partition scan would have made it visible.

    Each worker's round-``k`` superstep stays open until its round-
    ``k+1`` turn: only then have the late (higher-rank) round-``k``
    emissions arrived, so only then is the end-of-round queue length
    known.  The stop token closes the last open supersteps.
    """
    cluster = executor.cluster
    metrics = executor.metrics
    rank = cluster.rank
    size = cluster.size
    parallelism = executor.parallelism
    label = f"{node.name}.microstep"
    batch = executor.config.async_poll_batch

    detector = AsyncTerminationDetector(parallelism)
    queue = deque()
    open_round = None
    last_updates = 0

    def ring_send(target, token):
        """Pass the token on, attributing its wire bytes here."""
        bytes_before = cluster.bytes_sent
        cluster.send_to(target, token, tag="ring")
        metrics.add_bytes_shipped(cluster.bytes_sent - bytes_before)

    def take_mine(pending, max_seq):
        """Pop records destined to this rank with seq <= max_seq,
        preserving the token's chronological order."""
        mine, rest = [], []
        for entry in pending:
            if entry[2] == rank and entry[0] <= max_seq:
                mine.append(entry[3])
            else:
                rest.append(entry)
        pending[:] = rest
        return mine

    def my_turn(token, round_number):
        """Stage A: settle the previous round; stage B: run this one."""
        nonlocal open_round, last_updates
        pending = token["pending"]
        # stage A — ingest last round's late emissions, then close
        # the superstep they belong to at its true queue length
        queue.extend(take_mine(pending, round_number - 1))
        if open_round is not None:
            metrics.end_superstep(
                workset_size=len(queue), delta_size=last_updates
            )
            open_round = None
        # stage B — ingest this round's earlier emissions and drain
        queue.extend(take_mine(pending, round_number))
        detector.restore_state(token["detector"])
        metrics.begin_superstep(round_number)
        open_round = round_number
        detector.set_idle(rank, False)
        shipped = [0, 0]  # local, remote

        def emit(record, source):
            target = partition_index(route_key(record), parallelism)
            detector.sent()
            shipped[target != source] += 1
            if target == rank:
                queue.append(record)
            else:
                pending.append((round_number, rank, target, record))

        updates_before = metrics.solution_updates
        taken = _drain_queue(
            queue, rank, index, to_delta, to_workset, emit, limit=batch
        )
        metrics.add_processed(label, taken)
        metrics.add_shipped(local=shipped[0], remote=shipped[1])
        detector.acked(taken)
        detector.set_idle(rank, len(queue) == 0)
        last_updates = metrics.solution_updates - updates_before
        token["detector"] = detector.snapshot_state()

    def seed_turn(token):
        """Ingest earlier ranks' seeds, then route the local ones."""
        pending = token["pending"]
        queue.extend(take_mine(pending, 0))
        detector.restore_state(token["detector"])
        shipped = [0, 0]
        for record in scope.bindings[node.workset_placeholder.id][rank]:
            target = partition_index(route_key(record), parallelism)
            detector.sent()
            shipped[target != rank] += 1
            if target == rank:
                queue.append(record)
            else:
                pending.append((0, rank, target, record))
        metrics.add_shipped(local=shipped[0], remote=shipped[1])
        token["detector"] = detector.snapshot_state()

    def stop_turn(token):
        """Drain remaining deliveries and close the open superstep."""
        queue.extend(take_mine(token["pending"], token["round"]))
        if open_round is not None:
            metrics.end_superstep(
                workset_size=len(queue), delta_size=last_updates
            )

    next_rank = (rank + 1) % size
    prev_rank = (rank - 1) % size
    if rank == 0:
        token = {"phase": "seed", "pending": [],
                 "detector": detector.snapshot_state()}
        seed_turn(token)
        ring_send(next_rank, token)
        token = cluster.recv_from(prev_rank, tag="ring")
        detector.restore_state(token["detector"])
        # mirrors the in-process loop's cap on detector-starved runs
        max_rounds = node.max_iterations * (detector.sent_count or 1)
        rounds = 0
        while not detector.terminated and rounds < max_rounds:
            rounds += 1
            token["phase"] = "round"
            token["round"] = rounds
            my_turn(token, rounds)
            ring_send(next_rank, token)
            token = cluster.recv_from(prev_rank, tag="ring")
            detector.restore_state(token["detector"])
        terminated = detector.terminated
        token["phase"] = "stop"
        token["round"] = rounds
        token["terminated"] = terminated
        stop_turn(token)
        ring_send(next_rank, token)
        cluster.recv_from(prev_rank, tag="ring")
        return terminated, rounds
    while True:
        token = cluster.recv_from(prev_rank, tag="ring")
        phase = token["phase"]
        if phase == "seed":
            seed_turn(token)
        elif phase == "round":
            my_turn(token, token["round"])
        else:  # stop
            stop_turn(token)
            terminated = token["terminated"]
            rounds = token["round"]
            ring_send(next_rank, token)
            return terminated, rounds
        ring_send(next_rank, token)


# ----------------------------------------------------------------------
# pipeline compilation


def _compile_chain(executor, scope, chain):
    """Compile a record-at-a-time operator chain into per-record stages.

    Constant-side inputs of binary operators (e.g. the topology table N)
    are shipped once per their plan annotation and materialized as
    per-partition hash tables (Match) or record lists (Cross).
    """
    return [_compile_stage(executor, scope, op) for op in chain]


def _compile_stage(executor, scope, op):
    contract = op.contract
    if contract is Contract.MAP:
        fn = op.udf
        return lambda p, rec: (fn(rec),)
    if contract is Contract.FLAT_MAP:
        fn = op.udf
        return lambda p, rec: tuple(fn(rec))
    if contract is Contract.FILTER:
        fn = op.udf
        return lambda p, rec: (rec,) if fn(rec) else ()
    if contract is Contract.SOLUTION_JOIN:
        index = scope.solution_index
        probe_key = KeyExtractor(op.key_fields[0])
        fn = op.udf
        flat = getattr(op, "flat", False)

        def solution_stage(p, rec):
            stored = index.lookup(p, probe_key(rec))
            if stored is None:
                return ()
            result = fn(rec, stored)
            if result is None:
                return ()
            return tuple(result) if flat else (result,)

        return solution_stage
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
    const_idx = 1 - dyn_idx
    shipped = executor._ship_one_input(op, const_idx, scope.iter_memo, scope)
    tables = [
        drivers.group_by_key(
            part, op.key_fields[const_idx], executor.batch_size
        )
        for part in shipped
    ]
    dyn_key = KeyExtractor(op.key_fields[dyn_idx])
    fn = op.udf
    flat = getattr(op, "flat", False)

    def match_stage(p, rec):
        out = []
        for other in tables[p].get(dyn_key(rec), ()):
            pair = (other, rec) if const_idx == 0 else (rec, other)
            result = fn(*pair)
            if result is None:
                continue
            if flat:
                out.extend(result)
            else:
                out.append(result)
        return out

    return match_stage


def _compile_cross_stage(executor, scope, op):
    dyn_idx = _dynamic_input_of(scope, op)
    const_idx = 1 - dyn_idx
    shipped = executor._ship_one_input(op, const_idx, scope.iter_memo, scope)
    fn = op.udf

    def cross_stage(p, rec):
        out = []
        for other in shipped[p]:
            pair = (other, rec) if const_idx == 0 else (rec, other)
            result = fn(*pair)
            if result is not None:
                out.append(result)
        return out

    return cross_stage


def _run_chain(stages, partition, records):
    current = records
    for stage in stages:
        produced = []
        for record in current:
            produced.extend(stage(partition, record))
        current = produced
        if not current:
            break
    return current

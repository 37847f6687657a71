"""Fused chain execution: one driver pushes batches through a whole chain.

The executor calls :func:`run_fused_chain` when it evaluates the tail of
a :class:`~repro.runtime.plan.FusedChain` (see
:mod:`repro.optimizer.chaining` for what the planner fuses).  The chain's
head inputs and union taps are shipped exactly as the unfused
interpreter would ship them — same strategies, same constant-path edge
caching, same counters — and everything between them runs in-process:
each partition's records are pushed through the chain's operator stages
one :class:`~repro.common.batch.RecordBatch`-sized chunk at a time, with
no per-operator memo entries, no intermediate partition lists, and no
per-edge ship calls.

**Counter parity.**  Fusion must be invisible to the logical-counter
audit: every fused operator still reports its per-operator
``records_processed`` (zero counts included, so counter *keys* match),
every fused-away forward edge still reports its records as locally
shipped (mirroring :func:`repro.runtime.channels._ship_forward`), and the
invariant checker still audits every operator's per-partition
input/output conservation.  Under SPMD each worker runs the same chain
over its own partition slot, so merged worker counters sum to the
simulator's totals exactly as they do unfused.

**Tracing.**  One ``chain[map→filter→…]`` span (category ``chain``)
replaces the tail's operator span; nested zero-width per-operator child
spans carry each member's counter deltas explicitly, so per-operator
attribution survives in Perfetto even though the operators no longer
execute separately.
"""

from __future__ import annotations

from repro.dataflow.contracts import Contract
from repro.runtime import drivers


def _compile_items(chain):
    """Split the spine into unions and maximal unary segments.

    Returns a list of items: ``("segment", [(spine index, kernel, udf),
    ...])`` for runs of Map/FlatMap/Filter, each with its
    :data:`~repro.runtime.drivers.RECORD_KERNELS` loop, and ``("union",
    spine index, spine side)`` for each union (``spine side`` is None
    for a union at the head, whose both inputs arrive via the head
    shipping).
    """
    items = []
    segment: list = []
    for i, node in enumerate(chain.nodes):
        if node.contract is Contract.UNION:
            if segment:
                items.append(("segment", segment))
                segment = []
            side = None if i == 0 else chain.spine_inputs[i - 1]
            items.append(("union", i, side))
        else:
            segment.append(
                (i, drivers.RECORD_KERNELS[node.contract], node.udf)
            )
    if segment:
        items.append(("segment", segment))
    return items


def run_fused_chain(executor, chain, step_memo, scope):
    """Execute ``chain`` and return its output partitions.

    For a plain chain the result is the tail operator's output (the
    executor memoizes it under the tail's id as usual); for a combine
    chain it is the pre-shuffle *combined* partitions, which the
    executor's combiner branch then ships and aggregates exactly like
    the unfused path.
    """
    tracer = executor.tracer
    span = None
    if tracer is not None:
        span = tracer.begin(
            chain.describe(), category="chain",
            operators="→".join(n.name for n in chain.nodes),
            length=len(chain.nodes) + (1 if chain.combine_node else 0),
        )
    try:
        return _run(executor, chain, step_memo, scope, tracer)
    finally:
        if span is not None:
            tracer.end(span)


def _run(executor, chain, step_memo, scope, tracer):
    head = chain.nodes[0]
    n_ops = len(chain.nodes)
    parallelism = executor.parallelism
    batch_size = executor.batch_size
    metrics = executor.metrics
    checker = metrics.invariants

    # ship the chain's real channels: the head's inputs and every union
    # tap, with the same strategies and edge caching as unfused execution
    head_shipped = executor._shipped_inputs(head, step_memo, scope)
    taps: dict[int, list] = {}  # spine index -> shipped tap partitions
    for i, node in enumerate(chain.nodes[1:], start=1):
        if node.contract is Contract.UNION:
            taps[i] = executor._ship_one_input(
                node, 1 - chain.spine_inputs[i - 1], step_memo, scope
            )

    items = _compile_items(chain)
    combine = chain.combine_node

    # per-operator totals for counters and spans
    total_in = [0] * n_ops
    total_out = [0] * n_ops
    combine_in = 0
    combine_out = 0
    out_partitions = []
    for p in range(parallelism):
        stream: list = []
        per_op_in: list = [None] * n_ops  # input sizes per op, this partition
        per_op_out = [0] * n_ops
        for item in items:
            if item[0] == "union":
                _, i, side = item
                if side is None:  # union at the head: both inputs shipped
                    left = head_shipped[0][p]
                    right = head_shipped[1][p]
                else:
                    tap = taps[i][p]
                    left = stream if side == 0 else tap
                    right = tap if side == 0 else stream
                per_op_in[i] = [len(left), len(right)]
                stream = list(left) + list(right)
                per_op_out[i] = len(stream)
            else:
                segment = item[1]
                if segment[0][0] == 0:  # head segment: take the input
                    stream = head_shipped[0][p]
                stream = _run_segment(
                    segment, stream, batch_size, per_op_in, per_op_out
                )
        if combine is not None:
            per_part_in = len(stream)
            # the pre-shuffle combine pass (Sec. 6.1) of this partition
            stream = drivers.fold_by_key(
                stream, combine.key_fields[0], batch_size, combine.udf
            )
            combine_in += per_part_in
            combine_out += len(stream)
        out_partitions.append(stream)

        for i, node in enumerate(chain.nodes):
            ins = per_op_in[i]
            if ins is None:
                ins = [0] if node.contract is not Contract.UNION else [0, 0]
            total_in[i] += sum(ins)
            total_out[i] += per_op_out[i]
            if checker is not None:
                checker.check_driver(
                    node.name, node.contract, ins, per_op_out[i]
                )

    # per-operator logical counters: identical totals (and identical
    # Counter keys — zero counts create them) to unfused execution
    for i, node in enumerate(chain.nodes):
        metrics.add_processed(node.name, total_in[i])
    if combine is not None:
        metrics.add_processed(f"{combine.name}.combine", combine_in)

    # fused-away spine edges still count as local forward ships, one
    # accounting entry per edge, mirroring channels._ship_forward (all
    # records local, zero batches framed); the pre-combine edge never
    # ships in the unfused combiner branch either, so it stays silent
    for i in range(n_ops - 1):
        metrics.add_shipped(local=total_out[i], remote=0)

    if tracer is not None:
        for i, node in enumerate(chain.nodes):
            op_span = tracer.begin(
                f"operator:{node.name}", category="operator",
                contract=node.contract.value, fused=True,
            )
            tracer.end(op_span, counters={
                "records_processed": total_in[i],
                "records_out": total_out[i],
            })
        if combine is not None:
            op_span = tracer.begin(
                f"operator:{combine.name}.combine", category="operator",
                contract=combine.contract.value, fused=True,
            )
            tracer.end(op_span, counters={
                "records_processed": combine_in,
                "records_out": combine_out,
            })
    return out_partitions


def _run_segment(segment, stream, batch_size, per_op_in, per_op_out):
    """Push one partition's records through a unary segment in batches.

    Each ``batch_size`` chunk traverses the whole segment before the
    next chunk starts — the cache-friendly pass that makes fusion a
    performance win.  Chunking never reorders records, so output is
    bitwise identical to whole-partition evaluation.
    """
    for i, _kernel, _fn in segment:
        per_op_in[i] = [0]
    if not stream:
        return []
    if not isinstance(stream, list):
        # a lazy or batch-backed partition (disk view, RecordBatch):
        # materialize once so chunk slicing below works on any input
        stream = list(stream)
    out: list = []
    n = len(stream)
    step = batch_size if batch_size and batch_size > 0 else n
    for start in range(0, n, step):
        chunk = stream[start:start + step]
        for i, kernel, fn in segment:
            per_op_in[i][0] += len(chunk)
            if chunk:
                chunk = kernel(fn, chunk)
            per_op_out[i] += len(chunk)
        out.extend(chunk)
    return out



"""Shipping channels between operators.

A dataset at rest is a list of ``parallelism`` partitions, each a list of
tuple records.  Shipping a dataset re-routes records according to a
:class:`~repro.runtime.plan.ShipStrategy`; every record transfer is
counted as local (stays in its partition) or remote (crosses a partition
boundary — a "network message" in the paper's terms).

**One path for every context.**  A non-forward ship is *frame, then
route*: :func:`frame` walks the source partitions the calling
:class:`~repro.cluster.context.ClusterContext` owns (one framing routine
per strategy) and ``cluster.route`` delivers ``frames[target]`` to each
target's owner — the identity in the simulator, which owns every
partition, an all-to-all exchange between SPMD workers, which own one
each.  Whether a channel is in-memory or crosses the fabric is decided
below the ship (the paper's Secs. 3, 4.2).

**Partition-count contract.**  Every ship requires exactly
``parallelism`` input partitions and produces exactly ``parallelism``
output partitions.  Datasets at rest always hold one partition per
worker (the loaders below guarantee it), so partition index *i* means
"worker *i*" on both sides of a channel — which is what makes
``target == source`` a valid locality test.  Shipping a dataset
whose partition count disagrees with the cluster width is an error, not
a silent re-interpretation: before this contract was enforced, the hash
and gather channels mislabelled local vs remote counts whenever the two
partitionings diverged.

Hashing is deterministic across processes so that plans, tests, and
benchmarks are reproducible.

**Batched data plane.**  Ships move records in
:class:`~repro.common.batch.RecordBatch` chunks of ``batch_size``
records: the hash framer computes one key/hash vector per chunk and
scatters from it (one hash pass per batch instead of one
extract+hash call per record), and a worker's exchange streams each
frame as size-bounded chunks.
``batch_size=None`` keeps the whole partition in one chunk;
``batch_size=1`` is the degenerate record-at-a-time mode.  Chunking
never changes results, record order, or the local/remote split — only
the framing — and the number of framed chunks is counted on
``metrics.batches_shipped`` identically on every backend (each context
counts the chunks of the partitions it owns).

When the shipping metrics collector carries an
:class:`~repro.runtime.invariants.InvariantChecker`, every ship is
audited after the fact: conservation (records out equal records in),
placement (hash-shipped records land on ``partition_index(key)``, and
so do the records of a forward ship that names a partitioning), and the
local/remote split recomputed independently per record — by the global
law when the context saw every partition, by its per-owner projection
otherwise.
"""

from __future__ import annotations

from functools import partial

from repro.cluster.context import LOCAL
from repro.common.batch import RecordBatch
from repro.runtime.plan import ShipKind


def empty_partitions(parallelism: int) -> list[list]:
    return [[] for _ in range(parallelism)]


def _chunk_count(n: int, batch_size) -> int:
    """How many batch chunks a partition of ``n`` records frames."""
    if n == 0:
        return 0
    if batch_size is None:
        return 1
    return -(-n // batch_size)


def ship(partitions, strategy, parallelism, metrics=None, cluster=LOCAL,
         batch_size=None, max_frame_bytes=None, columnar=True):
    """Move ``partitions`` according to ``strategy``; returns new partitions.

    Enforces the partition-count contract above: ``partitions`` must hold
    exactly ``parallelism`` entries for every strategy.  Local/remote
    accounting is recorded on ``metrics`` and, when an invariant checker
    is attached, audited against a per-record recomputation.

    ``cluster`` decides which source partitions this call frames and
    how the frames reach their owners; forward ships never cross
    partitions, so they are neither framed nor routed.  Which strategy
    an edge takes is the planner's decision alone: where a producer is
    already partitioned as its consumer needs (the staged delta of a
    workset iteration, for one), the plan says FORWARD and names that
    partitioning, and the checker audits it.

    ``batch_size`` frames the move in record-batch chunks (see the
    module docstring); ``max_frame_bytes`` additionally bounds the
    serialized size of one fabric frame.

    The hash framer computes partition targets with one vectorized
    pass over a chunk's int64 key column when it has one (the row loop
    otherwise), and a serializing context frames fixed-width columns
    as raw buffers; targets, output order and the local/remote split
    are the same either way.  ``columnar`` has no effect (the data
    plane is always columnar); ``benchmarks/perf/probes.py`` still
    passes it.
    """
    if len(partitions) != parallelism:
        raise ValueError(
            f"{strategy.kind.value} shipping requires exactly "
            f"{parallelism} input partitions, got {len(partitions)}: "
            "datasets at rest hold one partition per worker "
            "(the partition-count contract)"
        )
    kind = strategy.kind
    checker = metrics.invariants if metrics is not None else None
    # one span covers the ship whatever the context, so traces have
    # identical structure on every backend
    tracer = metrics.tracer if metrics is not None else None
    span = None
    if tracer is not None:
        span = tracer.begin(
            f"ship:{kind.value}", category="channel", kind=kind.value,
            fanout=parallelism, batch_size=batch_size or 0,
        )
    try:
        owned = cluster.owned_partitions(parallelism)
        bytes_before = cluster.bytes_sent
        if kind is ShipKind.FORWARD:
            frames = None
            out, local, remote = _ship_forward(partitions)
            batches = 0
        else:
            frames, local, remote, batches = frame(
                partitions, owned, strategy, batch_size, checker
            )
            out = cluster.route(
                frames, batch_size=batch_size,
                max_frame_bytes=max_frame_bytes,
                key_fields=getattr(strategy, "key_fields", None),
            )
        if metrics is not None:
            metrics.add_bytes_shipped(cluster.bytes_sent - bytes_before)
            metrics.add_shipped(local=local, remote=remote)
            if batches:
                metrics.add_batches_shipped(batches)
        if checker is not None:
            if frames is None or len(owned) == parallelism:
                # this context saw every partition: the global law
                checker.check_ship(
                    strategy, partitions, out, parallelism, local, remote
                )
            else:
                checker.check_exchange(
                    strategy, partitions, frames, out, parallelism, owned,
                    local, remote,
                )
        return out
    finally:
        if span is not None:
            tracer.end(span)


def _ship_forward(partitions):
    total = sum(len(p) for p in partitions)
    # lazy (disk-backed) partitions pass through unmaterialized so a
    # forward ship out of an out-of-core iteration keeps streaming
    out = [
        p if getattr(p, "is_lazy_partition", False) else list(p)
        for p in partitions
    ]
    return out, total, 0


def frame(partitions, owned, strategy, batch_size=None, checker=None):
    """Frame the ``owned`` source partitions for their target partitions.

    Returns ``(frames, local, remote, batches)``: ``frames[t]`` holds
    what the owned sources produced for partition ``t`` in ascending
    source order; the counts sum the framing routine's per-source
    triples.  Ownership is all that differs between contexts, so summed
    over a cluster's contexts the counts are the same on every backend,
    and ``route``'s source-ascending concatenation rebuilds the same
    partitions.
    """
    kind = strategy.kind
    sources = [(s, partitions[s]) for s in owned if len(partitions[s])]
    # input-observed: a hash ship whose every source is a column-born
    # batch that scatters (a property of the layout, so it is decided
    # before any chunk is touched) never materializes a row
    scatter = kind is ShipKind.PARTITION_HASH and all(
        isinstance(part, RecordBatch)
        and RecordBatch.wrap(part, strategy.key_fields).can_scatter()
        for _source, part in sources
    )
    if scatter:
        framer = partial(_frame_scatter, key_fields=strategy.key_fields,
                         checker=checker)
    elif kind is ShipKind.PARTITION_HASH:
        framer = partial(_frame_hash, key_fields=strategy.key_fields,
                         checker=checker)
    elif kind is ShipKind.BROADCAST:
        framer = _frame_broadcast
    elif kind is ShipKind.GATHER:
        framer = _frame_gather
    else:
        raise ValueError(f"unknown ship kind {kind}")
    frames = empty_partitions(len(partitions))
    local = remote = batches = 0
    # source and target indices refer to the same partitioning: the
    # contract in ship() guarantees len(partitions) == parallelism
    for source, part in sources:
        here, away, chunks = framer(part, source, frames, batch_size)
        local += here
        remote += away
        batches += chunks
    if scatter:
        # per-target column groups concatenate as column buffers: the
        # frames are column-born batches, ready for a columnar consumer
        frames = [RecordBatch.merge(groups) if groups else []
                  for groups in frames]
    return frames, local, remote, batches


def _frame_hash(part, source, frames, batch_size, key_fields, checker=None):
    """One key/hash vector per chunk; records scatter to their owners."""
    parallelism = len(frames)
    appends = [f.append for f in frames]
    here = chunks = 0
    for chunk in RecordBatch.wrap(part, key_fields).split(batch_size):
        if checker is not None:
            checker.check_batch(chunk)
        targets = chunk.partition_targets(parallelism)
        for target, record in zip(targets, chunk.records):
            appends[target](record)
        here += targets.count(source)
        chunks += 1
    return here, len(part) - here, chunks


def _frame_scatter(part, source, frames, batch_size, key_fields,
                   checker=None):
    """:func:`_frame_hash` column-at-a-time: each chunk is grouped by one
    vectorized hash pass (:meth:`RecordBatch.scatter`) and every target
    collects a column group — same record order, split and chunk count."""
    here = chunks = 0
    for chunk in RecordBatch.wrap(part, key_fields).split(batch_size):
        groups = chunk.scatter(len(frames))
        if checker is not None:
            # after the scatter: the audit materializes the rows
            checker.check_batch(chunk)
        for target_frame, group in zip(frames, groups):
            target_frame.append(group)
        here += len(groups[source])
        chunks += 1
    return here, len(part) - here, chunks


def _frame_broadcast(part, source, frames, batch_size):
    for target_frame in frames:
        target_frame.extend(part)
    n = len(part)
    return n, n * (len(frames) - 1), len(frames) * _chunk_count(n, batch_size)


def _frame_gather(part, source, frames, batch_size):
    frames[0].extend(part)
    n = len(part)
    chunks = _chunk_count(n, batch_size)
    return (n, 0, chunks) if source == 0 else (0, n, chunks)


def merge(partitions) -> list:
    """Flatten partitions into one list (driver-side collect)."""
    return [record for part in partitions for record in part]


def partition_records(records, key_fields, parallelism) -> list[list]:
    """Hash-partition a flat record list (used to load initial datasets)."""
    out = empty_partitions(parallelism)
    if records:
        _frame_hash(records, 0, out, batch_size=None, key_fields=key_fields)
    return out


def round_robin(records, parallelism) -> list[list]:
    """Spread a flat record list evenly (source loading, key-less data)."""
    out = empty_partitions(parallelism)
    for i, record in enumerate(records):
        out[i % parallelism].append(record)
    return out

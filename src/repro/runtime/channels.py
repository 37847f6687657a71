"""Shipping channels between operators of the simulated cluster.

A dataset at rest is a list of ``parallelism`` partitions, each a list of
tuple records.  Shipping a dataset re-routes records according to a
:class:`~repro.runtime.plan.ShipStrategy`; every record transfer is
counted as local (stays in its partition) or remote (crosses a partition
boundary — a "network message" in the paper's terms).

**Partition-count contract.**  Every ship requires exactly
``parallelism`` input partitions and produces exactly ``parallelism``
output partitions.  Datasets at rest always hold one partition per
worker (the loaders below guarantee it), so partition index *i* means
"worker *i*" on both sides of a channel — which is what makes
``target == source_index`` a valid locality test.  Shipping a dataset
whose partition count disagrees with the cluster width is an error, not
a silent re-interpretation: before this contract was enforced, the hash
and gather channels mislabelled local vs remote counts whenever the two
partitionings diverged.

Hashing is deterministic across processes so that plans, tests, and
benchmarks are reproducible.

**Batched data plane.**  Ships move records in
:class:`~repro.common.batch.RecordBatch` chunks of ``batch_size``
records: the hash channel computes one key/hash vector per chunk and
scatters from it (one hash pass per batch instead of one
extract+hash call per record), and under SPMD the exchange splits
frames into size-bounded chunks instead of one monolithic pickle.
``batch_size=None`` keeps the whole partition in one chunk;
``batch_size=1`` is the degenerate record-at-a-time mode.  Chunking
never changes results, record order, or the local/remote split — only
the framing — and the number of framed chunks is counted on
``metrics.batches_shipped`` identically in both backends.

When the shipping metrics collector carries an
:class:`~repro.runtime.invariants.InvariantChecker`, every ship is
audited after the fact: conservation (records out equal records in),
placement (hash-shipped records land on ``partition_index(key)``), and
the local/remote split recomputed independently per record.
"""

from __future__ import annotations

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


def ship(partitions, strategy, parallelism, metrics=None, cluster=None,
         batch_size=None, max_frame_bytes=None, columnar=False):
    """Move ``partitions`` according to ``strategy``; returns new partitions.

    Enforces the partition-count contract above: ``partitions`` must hold
    exactly ``parallelism`` entries for every strategy.  Local/remote
    accounting is recorded on ``metrics`` and, when an invariant checker
    is attached, audited against a per-record recomputation.

    When ``cluster`` is an SPMD worker context, non-forward ships move
    records over the cluster's real all-to-all exchange instead of
    in-process list shuffling; forward ships never cross partitions, so
    they take the local path even under SPMD.

    ``batch_size`` frames the move in record-batch chunks (see the
    module docstring); ``max_frame_bytes`` additionally bounds the
    serialized size of one SPMD fabric frame.

    ``columnar`` engages the struct-of-arrays fast paths: the hash
    scatter computes partition targets with one vectorized pass over
    the int64 key column when the batch has one (falling back to the
    row loop otherwise), and the SPMD exchange frames fixed-width
    columns as raw buffers.  Targets, output order, and the
    local/remote split are bitwise identical in both modes.
    """
    if len(partitions) != parallelism:
        raise ValueError(
            f"{strategy.kind.value} shipping requires exactly "
            f"{parallelism} input partitions, got {len(partitions)}: "
            "datasets at rest hold one partition per worker "
            "(the partition-count contract)"
        )
    kind = strategy.kind
    # one span covers the ship whichever path it takes, so traces have
    # identical structure across the in-process and SPMD settings
    tracer = metrics.tracer if metrics is not None else None
    span = None
    if tracer is not None:
        span = tracer.begin(
            f"ship:{kind.value}", category="channel", kind=kind.value,
            fanout=parallelism, batch_size=batch_size or 0,
        )
    try:
        if (
            cluster is not None
            and not cluster.is_local
            and cluster.size > 1
            and kind is not ShipKind.FORWARD
        ):
            return _ship_spmd(
                partitions, strategy, parallelism, metrics, cluster,
                batch_size=batch_size, max_frame_bytes=max_frame_bytes,
                columnar=columnar,
            )
        if kind is ShipKind.FORWARD:
            out, local, remote = _ship_forward(partitions)
            batches = 0
        elif kind is ShipKind.PARTITION_HASH:
            out, local, remote, batches = _ship_hash(
                partitions, strategy.key_fields, parallelism,
                batch_size=batch_size, metrics=metrics, columnar=columnar,
            )
        elif kind is ShipKind.BROADCAST:
            out, local, remote = _ship_broadcast(partitions, parallelism)
            batches = parallelism * sum(
                _chunk_count(len(p), batch_size) for p in partitions
            )
        elif kind is ShipKind.GATHER:
            out, local, remote = _ship_gather(partitions, parallelism)
            batches = sum(_chunk_count(len(p), batch_size) for p in partitions)
        else:
            raise ValueError(f"unknown ship kind {kind}")
        if metrics is not None:
            metrics.add_shipped(local=local, remote=remote)
            if batches:
                metrics.add_batches_shipped(batches)
            checker = metrics.invariants
            if checker is not None:
                checker.check_ship(
                    strategy, partitions, out, parallelism, local, remote
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


def _ship_hash(partitions, key_fields, parallelism, batch_size=None,
               metrics=None, columnar=False):
    checker = metrics.invariants if metrics is not None else None
    if columnar:
        scattered = _ship_hash_columnar(
            partitions, key_fields, parallelism, batch_size, checker
        )
        if scattered is not None:
            return scattered
    out = empty_partitions(parallelism)
    appends = [p.append for p in out]
    local = 0
    remote = 0
    batches = 0
    # source_index and target index refer to the same partitioning: the
    # contract in ship() guarantees len(partitions) == parallelism
    for source_index, part in enumerate(partitions):
        if not part:
            continue
        for chunk in RecordBatch.wrap(part, key_fields).split(batch_size):
            if checker is not None:
                checker.check_batch(chunk)
            targets = chunk.partition_targets(
                parallelism, columnar_mode=columnar
            )
            for target, record in zip(targets, chunk.records):
                appends[target](record)
            here = targets.count(source_index)
            local += here
            remote += len(targets) - here
            batches += 1
    return out, local, remote, batches


def _ship_hash_columnar(partitions, key_fields, parallelism,
                        batch_size, checker):
    """Column-at-a-time hash scatter for columnar-resident inputs.

    Engages only when every non-empty partition is a column-born
    :class:`RecordBatch` whose chunks scatter (all fixed-width columns,
    int64 key vector): each chunk's records are grouped by one
    vectorized hash pass (:meth:`RecordBatch.scatter`) and the groups
    concatenated per target as column buffers — no row materializes
    anywhere on the path, and the output partitions are themselves
    column-born batches ready for the next columnar consumer.  Output
    record order, the local/remote split, and the ``batches`` count are
    identical to the row loop's.  Returns ``None`` to fall back when
    any partition is row-resident or any chunk carries an object
    column (partially-gathered work is discarded; the row loop redoes
    it from scratch).
    """
    gathered: list[list] = [[] for _ in range(parallelism)]
    local = 0
    remote = 0
    batches = 0
    for source_index, part in enumerate(partitions):
        if isinstance(part, RecordBatch):
            if not len(part):
                continue
            if part._records is not None or not part.has_columns():
                return None
        elif not part:
            continue
        else:
            return None
        wrapped = RecordBatch.wrap(part, key_fields)
        for chunk in wrapped.split(batch_size):
            if checker is not None:
                checker.check_batch(chunk)
            groups = chunk.scatter(parallelism)
            if groups is None:
                return None
            for target, group in enumerate(groups):
                gathered[target].append(group)
            here = len(groups[source_index])
            local += here
            remote += len(chunk) - here
            batches += 1
    out = [
        RecordBatch.merge(groups) if groups else []
        for groups in gathered
    ]
    return out, local, remote, batches


def _ship_broadcast(partitions, parallelism):
    all_records = [record for part in partitions for record in part]
    out = [list(all_records) for _ in range(parallelism)]
    return out, len(all_records), len(all_records) * (parallelism - 1)


def _ship_gather(partitions, parallelism):
    local = len(partitions[0]) if partitions else 0
    remote = sum(len(p) for p in partitions[1:])
    out = empty_partitions(parallelism)
    out[0] = [record for part in partitions for record in part]
    return out, local, remote


def _ship_spmd(partitions, strategy, parallelism, metrics, cluster,
               batch_size=None, max_frame_bytes=None, columnar=False):
    """One SPMD worker's side of a ship: frame, exchange, reassemble.

    The worker owns only ``partitions[rank]`` (the other slots are empty
    under localization).  It frames its records per the strategy and
    hands the frames to ``cluster.route``, which rebuilds its slot by
    concatenating received frames in ascending source-rank order — the
    same order the in-process channels produce by scanning source
    partitions, which is what keeps SPMD results and counters bitwise
    identical to the simulator's.

    The worker frames its slot in ``batch_size`` chunks (one key-hash
    vector per chunk, same as the in-process hash channel) and the
    exchange ships each target frame as chunked, size-bounded fabric
    payloads instead of one monolithic pickle.  The number of chunks
    framed from the local slot matches what the simulator counts for
    this partition, so ``batches_shipped`` agrees across backends.
    """
    rank = cluster.rank
    local_in = partitions[rank]
    n_in = len(local_in)
    kind = strategy.kind
    checker = metrics.invariants if metrics is not None else None
    frames: list[list] = [[] for _ in range(parallelism)]
    if kind is ShipKind.PARTITION_HASH:
        appends = [f.append for f in frames]
        batches = 0
        if local_in:
            wrapped = RecordBatch.wrap(local_in, strategy.key_fields)
            for chunk in wrapped.split(batch_size):
                if checker is not None:
                    checker.check_batch(chunk)
                targets = chunk.partition_targets(
                    parallelism, columnar_mode=columnar
                )
                for target, record in zip(targets, chunk.records):
                    appends[target](record)
                batches += 1
        local = len(frames[rank])
        remote = n_in - local
    elif kind is ShipKind.BROADCAST:
        frames = [list(local_in) for _ in range(parallelism)]
        local = n_in
        remote = n_in * (parallelism - 1)
        batches = parallelism * _chunk_count(n_in, batch_size)
    elif kind is ShipKind.GATHER:
        frames[0] = list(local_in)
        local = n_in if rank == 0 else 0
        remote = 0 if rank == 0 else n_in
        batches = _chunk_count(n_in, batch_size)
    else:
        raise ValueError(f"unknown ship kind {kind}")
    bytes_before = cluster.bytes_sent
    zc_cols_before = cluster.columns_zero_copied
    zc_bytes_before = cluster.bytes_zero_copied
    out = cluster.route(
        frames, batch_size=batch_size, max_frame_bytes=max_frame_bytes,
        columnar=columnar, key_fields=getattr(strategy, "key_fields", None),
    )
    if metrics is not None:
        metrics.add_bytes_shipped(cluster.bytes_sent - bytes_before)
        metrics.add_zero_copied(
            cluster.columns_zero_copied - zc_cols_before,
            cluster.bytes_zero_copied - zc_bytes_before,
        )
        metrics.add_shipped(local=local, remote=remote)
        if batches:
            metrics.add_batches_shipped(batches)
        if checker is not None:
            checker.check_exchange(
                strategy, local_in, frames, out[rank], parallelism, rank,
                local, remote,
            )
    return out


def merge(partitions) -> list:
    """Flatten partitions into one list (driver-side collect)."""
    return [record for part in partitions for record in part]


def partition_records(records, key_fields, parallelism) -> list[list]:
    """Hash-partition a flat record list (used to load initial datasets)."""
    out = empty_partitions(parallelism)
    if not records:
        return out
    batch = RecordBatch.wrap(records, key_fields)
    for target, record in zip(
        batch.partition_targets(parallelism), batch.records
    ):
        out[target].append(record)
    return out


def round_robin(records, parallelism) -> list[list]:
    """Spread a flat record list evenly (source loading, key-less data)."""
    out = empty_partitions(parallelism)
    for i, record in enumerate(records):
        out[i % parallelism].append(record)
    return out

"""Per-partition physical operator implementations (local strategies).

Each driver consumes the partition-local input record lists of one
operator and produces the partition-local output list.  Drivers are pure
with respect to the partition: all cross-partition movement has already
happened in the shipping channel, exactly as in a shared-nothing engine.

Join and aggregation drivers come in hash- and sort-based flavours; the
optimizer picks between them (Section 4.3), and the sort-based flavours
establish sort order as a physical property downstream operators can
reuse.

Keyed drivers are **batch-at-a-time**: each consumes its input as
:class:`~repro.common.batch.RecordBatch` chunks of ``batch_size``
records and works from the chunk's cached key vector — one extraction
pass per chunk instead of one :class:`KeyExtractor` call per probe,
build insert, or sort comparison.  ``batch_size=None`` processes the
whole partition as one chunk; any value produces identical outputs in
identical order, because chunking only changes how the key vectors are
materialized, never the record order they are consumed in.

**Columnar kernels.**  The keyed drivers route through vectorized
kernels whenever a key vector is an int64 column
(:meth:`RecordBatch.key_array`): the hash join probes each
``batch_size`` chunk with a stable-sorted ``searchsorted`` instead of
a per-record dict probe, and the sort-based drivers take ``argsort``
permutations instead of Python comparison sorts.  Both reproduce the
row kernels' output order bit for bit — the stable sort preserves
arrival order within equal keys, which is exactly the dict-insertion
order the hash table iterates — and any chunk whose keys are not
strictly ``int`` (bools, floats, composites, >64-bit) or that runs
without numpy takes the row kernel.  That is a property of the input,
not a setting.  The fold-based drivers (hash aggregate, reduce-group,
cogroup) keep their dict loops: a fold's per-record UDF call dominates
and dict insertion order is the contract, so there is nothing left to
vectorize without changing observable order.  The superstep solution
operators read runs with these kernels: the solution cogroup groups a
partition with :func:`group_by_key`, the solution join takes each
chunk's key vector, and both probe the solution partition in one
``get`` pass per run.
"""

from __future__ import annotations

from collections import defaultdict

from repro.common import columns as columnar_mod
from repro.common.batch import RecordBatch
from repro.common.errors import InvalidPlanError
from repro.dataflow.contracts import Contract
from repro.runtime.plan import LocalStrategy


def _emit_join_result(result, flat, out):
    if result is None:
        return
    if flat:
        out.extend(result)
    else:
        out.append(result)


def _key_chunks(records, key_fields, batch_size):
    """Yield ``(records, keys)`` pairs, one per batch chunk."""
    if not records:
        return
    for chunk in RecordBatch.wrap(records, key_fields).split(batch_size):
        yield chunk.records, chunk.keys


def group_into(table, keys, records):
    """Append every record to its key's list in ``table`` (a
    ``defaultdict(list)``); returns ``table``.  The grouping kernel of
    :func:`group_by_key` and of the out-of-core leaves."""
    for k, record in zip(keys, records):
        table[k].append(record)
    return table


def fold_into(table, keys, records, fn):
    """Fold every record into its key's accumulator in ``table`` with
    ``fn``; returns ``table``.  The folding kernel of :func:`fold_by_key`
    and of the out-of-core leaves."""
    get = table.get
    for k, record in zip(keys, records):
        held = get(k)
        table[k] = record if held is None else fn(held, record)
    return table


def group_by_key(records, key_fields, batch_size):
    """``{key: [records in arrival order]}``, keys in first-arrival order
    — the hash-join build table and the grouping drivers' group map
    (a ``defaultdict``: probe it with ``.get`` so misses insert nothing)."""
    table = defaultdict(list)
    for chunk, keys in _key_chunks(records, key_fields, batch_size):
        group_into(table, keys, chunk)
    return table


def fold_by_key(records, key_fields, batch_size, fn):
    """One ``fn``-folded record per key, keys in first-arrival order —
    the combinable REDUCE kernel (hash aggregate and the pre-shuffle
    combiner, Sec. 6.1)."""
    table = {}
    for chunk, keys in _key_chunks(records, key_fields, batch_size):
        fold_into(table, keys, chunk, fn)
    return list(table.values())


def _runs(records, key_fields, batch_size):
    """Yield one run ``(seqs, keys, records)`` per key-extraction chunk.

    The out-of-core algorithms' input: ``seqs`` is the chunk's range of
    arrival indices within this input — the tag they reassemble the
    in-memory drivers' exact record order by.  The chunking is
    :func:`_key_chunks`', so the batched data plane's key-vector framing
    (and its audit) is identical on both paths.
    """
    seq = 0
    for chunk, keys in _key_chunks(records, key_fields, batch_size):
        yield range(seq, seq + len(chunk)), keys, chunk
        seq += len(chunk)


def _keyed(records, key_fields, batch_size):
    """The full ``(records, keys)`` vectors, extracted chunk-wise.

    Sort-based drivers need the whole partition's key vector at once
    (a sort is global); this concatenates the per-chunk vectors so the
    extraction still happens one batch at a time.
    """
    recs: list = []
    keys: list = []
    for chunk_records, chunk_keys in _key_chunks(
        records, key_fields, batch_size
    ):
        recs.extend(chunk_records)
        keys.extend(chunk_keys)
    return recs, keys


# ----------------------------------------------------------------------
# columnar kernels (struct-of-arrays fast paths)


def _join_pairs(sorted_keys, order, probe_vector):
    """Vectorized equi-join index computation.

    ``order`` is the build side's stable ascending-key permutation and
    ``sorted_keys`` its key column in that order.  Returns
    ``(build_indices, probe_indices)`` (numpy int arrays) in
    probe-major order: all matches of probe 0, then probe 1, …; within
    one probe, build matches ascend in arrival order.  That is exactly
    the emission order of the row kernel's ``for probe: for build in
    table[k]`` loop, because the stable sort keeps equal-key builds in
    insertion order.
    """
    np = columnar_mod.numpy_module()
    left = np.searchsorted(sorted_keys, probe_vector, side="left")
    right = np.searchsorted(sorted_keys, probe_vector, side="right")
    counts = right - left
    if int(counts.max(initial=0)) <= 1:
        hit = counts.astype(bool)
        build_idx = order[left[hit]]
        if bool(hit.all()):
            probe_idx = None  # every probe matched exactly once, in order
        else:
            probe_idx = np.flatnonzero(hit)
        return build_idx, probe_idx
    # general expansion: probe p owns counts[p] consecutive output pairs
    probe_idx = np.repeat(np.arange(len(probe_vector)), counts)
    offsets = np.arange(int(counts.sum())) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    build_idx = order[np.repeat(left, counts) + offsets]
    return build_idx, probe_idx


def _pair_results(fn, build_records, build_idx, probe_records, probe_idx,
                  build_left):
    """The join UDF over matched index pairs, one raw result per pair,
    driven by ``map`` (no per-pair bytecode); lazy."""
    builds = map(build_records.__getitem__, build_idx.tolist())
    if probe_idx is None:
        probes = iter(probe_records)
    else:
        probes = map(probe_records.__getitem__, probe_idx.tolist())
    if build_left:
        return map(fn, builds, probes)
    return map(fn, probes, builds)


def _emit_results(results, flat, out):
    """Append raw join results to ``out``: ``None`` dropped, ``flat``
    results extended — :func:`_emit_join_result` over a whole stream."""
    if flat:
        for result in results:
            if result is not None:
                out.extend(result)
        return
    chunk = list(results)
    if None in chunk:
        chunk = [result for result in chunk if result is not None]
    out.extend(chunk)


class BuildSide:
    """One partition's hash-join build side, probed a chunk at a time.

    When the build keys vectorize it holds them as a key-sorted int64
    column (a stable ``argsort``, paid once); the dict table
    ``{key: [records]}`` is built only when a probe chunk's keys, or
    the build keys themselves, do not vectorize.  The executor's
    constant-edge build cache (Fig. 4) keeps one per partition, so
    supersteps re-probe the same sorted column.
    """

    __slots__ = ("records", "key_fields", "order", "sorted_keys", "_lookup")

    def __init__(self, records, key_fields):
        batch = RecordBatch.wrap(records, key_fields)
        self.records = batch.records
        self.key_fields = key_fields
        self.order = self.sorted_keys = self._lookup = None
        vector = batch.key_array()
        if vector is not None:
            np = columnar_mod.numpy_module()
            self.order = np.argsort(vector, kind="stable")
            self.sorted_keys = vector[self.order]

    def probe(self, probe_in, probe_fields, fn, build_left, flat,
              batch_size) -> list:
        """Join ``probe_in`` against this side in ``batch_size`` chunks.

        A chunk whose key vector is an int64 column takes the
        ``searchsorted`` kernel, any other chunk the dict lookup; both
        emit in the row kernel's order, so the output is the same
        whatever mix of chunks the input makes.
        """
        out: list = []
        if not len(probe_in):
            return out
        probes = RecordBatch.wrap(probe_in, probe_fields)
        if self.order is not None:
            probes.key_array()  # one extraction pass; chunks get slices
        for chunk in probes.chunks(batch_size):
            vector = chunk.key_array() if self.order is not None else None
            if vector is not None:
                build_idx, probe_idx = _join_pairs(
                    self.sorted_keys, self.order, vector
                )
                _emit_results(
                    _pair_results(fn, self.records, build_idx,
                                  chunk.records, probe_idx, build_left),
                    flat, out,
                )
                continue
            if self._lookup is None:
                self._lookup = group_by_key(
                    self.records, self.key_fields, None
                ).get
            lookup = self._lookup
            if build_left:
                for k, probe in zip(chunk.keys, chunk.records):
                    for build in lookup(k, ()):
                        _emit_join_result(fn(build, probe), flat, out)
            else:
                for k, probe in zip(chunk.keys, chunk.records):
                    for build in lookup(k, ()):
                        _emit_join_result(fn(probe, build), flat, out)
        return out


# ----------------------------------------------------------------------
# record-wise kernels: the one record loop per contract, shared by this
# module's dispatch, fused chains, microstep stages, the RDD's narrow
# transformations and the executor's pushed-down filters (callers keep
# their own counting)


def map_records(fn, records) -> list:
    return list(map(fn, records))


def flat_map_records(fn, records) -> list:
    out = []
    for record in records:
        out.extend(fn(record))
    return out


def filter_records(fn, records) -> list:
    return list(filter(fn, records))


RECORD_KERNELS = {
    Contract.MAP: map_records,
    Contract.FLAT_MAP: flat_map_records,
    Contract.FILTER: filter_records,
}


def run_union(node, inputs, metrics):
    left, right = inputs
    metrics.add_processed(node.name, len(left) + len(right))
    return list(left) + list(right)


# ----------------------------------------------------------------------
# joins


def run_hash_join(node, inputs, metrics, build_left: bool,
                  batch_size=None, spill=None):
    left, right = inputs
    metrics.add_processed(node.name, len(left) + len(right))
    if build_left:
        build_in, build_fields = left, node.key_fields[0]
        probe_in, probe_fields = right, node.key_fields[1]
    else:
        build_in, build_fields = right, node.key_fields[1]
        probe_in, probe_fields = left, node.key_fields[0]
    flat = getattr(node, "flat", False)
    if spill is not None:
        from repro.storage.hashtable import spilled_hash_join

        return spilled_hash_join(
            spill, node.name,
            _runs(build_in, build_fields, batch_size),
            _runs(probe_in, probe_fields, batch_size),
            node.udf, build_left, flat,
        )
    return BuildSide(build_in, build_fields).probe(
        probe_in, probe_fields, node.udf, build_left, flat, batch_size
    )


def _sort_permutation(keys):
    """The driver's sort order: stable ascending by key.

    For an all-int key vector this is one vectorized ``argsort``;
    otherwise a Python comparison sort.  Both are stable, so the
    permutations — and every downstream emission — are identical.
    """
    vector = columnar_mod.int64_from_values(keys)
    if vector is not None:
        np = columnar_mod.numpy_module()
        return np.argsort(vector, kind="stable").tolist()
    return sorted(range(len(keys)), key=keys.__getitem__)


def run_sort_merge_join(node, inputs, metrics, batch_size=None, spill=None):
    left, right = inputs
    metrics.add_processed(node.name, len(left) + len(right))
    fn = node.udf
    flat = getattr(node, "flat", False)
    if spill is not None:
        from repro.storage.external_sort import spilled_sort_merge_join

        return spilled_sort_merge_join(
            spill, node.name,
            _runs(left, node.key_fields[0], batch_size),
            _runs(right, node.key_fields[1], batch_size),
            fn, flat,
        )
    lrecs, lkeys = _keyed(left, node.key_fields[0], batch_size)
    rrecs, rkeys = _keyed(right, node.key_fields[1], batch_size)
    lorder = _sort_permutation(lkeys)
    rorder = _sort_permutation(rkeys)
    lsorted = [lrecs[i] for i in lorder]
    lsk = [lkeys[i] for i in lorder]
    rsorted = [rrecs[i] for i in rorder]
    rsk = [rkeys[i] for i in rorder]
    out = []
    i = j = 0
    nl, nr = len(lsorted), len(rsorted)
    while i < nl and j < nr:
        lk = lsk[i]
        rk = rsk[j]
        if lk < rk:
            i += 1
        elif rk < lk:
            j += 1
        else:
            i_end = i
            while i_end < nl and lsk[i_end] == lk:
                i_end += 1
            j_end = j
            while j_end < nr and rsk[j_end] == rk:
                j_end += 1
            for a in range(i, i_end):
                for b in range(j, j_end):
                    _emit_join_result(fn(lsorted[a], rsorted[b]), flat, out)
            i, j = i_end, j_end
    return out


# ----------------------------------------------------------------------
# aggregations and groupings


def run_hash_aggregate(node, inputs, metrics, batch_size=None, spill=None):
    """Combinable REDUCE via an updateable hash table."""
    records = inputs[0]
    metrics.add_processed(node.name, len(records))
    fn = node.udf
    if spill is not None:
        from repro.storage.hashtable import spilled_hash_aggregate

        return spilled_hash_aggregate(
            spill, node.name,
            _runs(records, node.key_fields[0], batch_size), fn,
        )
    return fold_by_key(records, node.key_fields[0], batch_size, fn)


def run_sort_aggregate(node, inputs, metrics, batch_size=None, spill=None):
    """Combinable REDUCE over key-sorted runs; output is key-sorted."""
    records = inputs[0]
    metrics.add_processed(node.name, len(records))
    fn = node.udf
    if spill is not None:
        from repro.storage.external_sort import spilled_sort_aggregate

        return spilled_sort_aggregate(
            spill, node.name,
            _runs(records, node.key_fields[0], batch_size), fn,
        )
    recs, keys = _keyed(records, node.key_fields[0], batch_size)
    order = _sort_permutation(keys)
    out = []
    current_key = object()
    acc = None
    for index in order:
        k = keys[index]
        record = recs[index]
        if k != current_key:
            if acc is not None:
                out.append(acc)
            current_key, acc = k, record
        else:
            acc = fn(acc, record)
    if acc is not None:
        out.append(acc)
    return out


def run_reduce_group(node, inputs, metrics, batch_size=None, spill=None):
    records = inputs[0]
    metrics.add_processed(node.name, len(records))
    fn = node.udf
    if spill is not None:
        from repro.storage.hashtable import spilled_reduce_group

        return spilled_reduce_group(
            spill, node.name,
            _runs(records, node.key_fields[0], batch_size), fn,
        )
    groups = group_by_key(records, node.key_fields[0], batch_size)
    out = []
    for k, group in groups.items():
        out.extend(fn(k, group))
    return out


def run_cogroup(node, inputs, metrics, inner: bool, batch_size=None,
                spill=None):
    left, right = inputs
    metrics.add_processed(node.name, len(left) + len(right))
    fn = node.udf
    if spill is not None:
        from repro.storage.hashtable import spilled_cogroup

        return spilled_cogroup(
            spill, node.name,
            _runs(left, node.key_fields[0], batch_size),
            _runs(right, node.key_fields[1], batch_size),
            fn, inner,
        )
    left_groups = group_by_key(left, node.key_fields[0], batch_size)
    right_groups = group_by_key(right, node.key_fields[1], batch_size)
    if inner:
        keys = left_groups.keys() & right_groups.keys()
    else:
        keys = left_groups.keys() | right_groups.keys()
    out = []
    for k in keys:
        out.extend(fn(k, left_groups.get(k, []), right_groups.get(k, [])))
    return out


def run_cross(node, inputs, metrics):
    left, right = inputs
    metrics.add_processed(node.name, len(left) * max(1, len(right)))
    fn = node.udf
    out = []
    for a in left:
        for b in right:
            result = fn(a, b)
            if result is not None:
                out.append(result)
    return out


# ----------------------------------------------------------------------
# combiner (pre-shuffle partial aggregation for combinable REDUCE)


def apply_combiner(node, partitions, metrics, batch_size=None):
    """Partially aggregate each partition before shipping (Sec. 6.1)."""
    combined = []
    for part in partitions:
        combined.append(
            fold_by_key(part, node.key_fields[0], batch_size, node.udf)
        )
        metrics.add_processed(f"{node.name}.combine", len(part))
    return combined


# ----------------------------------------------------------------------
# dispatch


def run_driver(node, local_strategy, inputs, metrics, batch_size=None,
               spill=None, columnar=True):
    """Run one operator on one partition's inputs.

    ``batch_size`` frames the keyed drivers' key-vector extraction in
    record-batch chunks (outputs are identical at any setting).

    ``columnar`` has no effect (the data plane is always columnar);
    ``benchmarks/perf/probes.py`` still passes it.

    ``spill`` is the session's :class:`~repro.storage.spill.SpillManager`
    when a memory budget is configured; the keyed drivers then route
    through the out-of-core algorithms in :mod:`repro.storage`, which
    produce bit-identical outputs at any budget.

    When an invariant checker is attached to ``metrics``, the output
    record count is audited against the contract's conservation bound
    (Map: one out per in; Filter: never grows; Union: bag sum;
    combinable Reduce: at most one record per input).
    """
    out = _dispatch(node, local_strategy, inputs, metrics, batch_size, spill)
    checker = metrics.invariants if metrics is not None else None
    if checker is not None:
        checker.check_driver(
            node.name, node.contract, [len(i) for i in inputs], len(out)
        )
    return out


def _dispatch(node, local_strategy, inputs, metrics, batch_size=None,
              spill=None):
    contract = node.contract
    kernel = RECORD_KERNELS.get(contract)
    if kernel is not None:
        metrics.add_processed(node.name, len(inputs[0]))
        return kernel(node.udf, inputs[0])
    if contract is Contract.UNION:
        return run_union(node, inputs, metrics)
    if contract is Contract.MATCH:
        if local_strategy is LocalStrategy.HASH_BUILD_LEFT:
            return run_hash_join(
                node, inputs, metrics, build_left=True, batch_size=batch_size,
                spill=spill,
            )
        if local_strategy is LocalStrategy.HASH_BUILD_RIGHT:
            return run_hash_join(
                node, inputs, metrics, build_left=False, batch_size=batch_size,
                spill=spill,
            )
        if local_strategy is LocalStrategy.SORT_MERGE:
            return run_sort_merge_join(
                node, inputs, metrics, batch_size=batch_size, spill=spill,
            )
        raise InvalidPlanError(f"{node.name}: no join strategy assigned")
    if contract is Contract.REDUCE:
        if local_strategy is LocalStrategy.SORT_AGGREGATE:
            return run_sort_aggregate(
                node, inputs, metrics, batch_size=batch_size, spill=spill,
            )
        return run_hash_aggregate(
            node, inputs, metrics, batch_size=batch_size, spill=spill
        )
    if contract is Contract.REDUCE_GROUP:
        return run_reduce_group(
            node, inputs, metrics, batch_size=batch_size, spill=spill
        )
    if contract is Contract.COGROUP:
        return run_cogroup(
            node, inputs, metrics, inner=False, batch_size=batch_size,
            spill=spill,
        )
    if contract is Contract.INNER_COGROUP:
        return run_cogroup(
            node, inputs, metrics, inner=True, batch_size=batch_size,
            spill=spill,
        )
    if contract is Contract.CROSS:
        return run_cross(node, inputs, metrics)
    raise InvalidPlanError(f"no driver for contract {contract.value}")

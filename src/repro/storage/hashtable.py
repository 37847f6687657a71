"""Partition-and-spill hash algorithms behind the keyed drivers.

The Grace-style scheme, run at a time.  A **run** is the parallel
vectors ``(seqs, keys, records)`` of one key-extraction chunk
(:func:`repro.runtime.drivers._runs`): ``seqs`` are the records'
arrival indices within their input.  A *partition pass* routes a
stream of runs into ``FANOUT`` buckets by the 3-bit slice
``level`` of ``stable_hash(key)`` — one hash pass per run (one numpy
``(keys >> 3*level) % FANOUT`` over an int64 key vector; other key
types hash per key) and one stable grouping, so each bucket receives
its records in arrival order.  Buckets and spill frames hold the
vectors too: a bucket is spilled run frames plus an in-memory tail run.

**The budget rule.**  Reservations are made per run segment, but the
spill decisions are exactly those of admitting one record at a time
(reserve its estimated bytes, and if the manager is now over budget,
flush the bucket with the longest tail).  With ``tracked`` bytes
reserved and ``est`` bytes per record, the first record whose
reservation crosses the budget is record number
``max(1, (budget - tracked) // est + 1)`` of the remaining run; a
segment ends exactly there, is reserved in one call, and the flush
happens on the same tail lengths the record-at-a-time rule would see.
So victims, flush points and ``records_spilled`` are unchanged; only
the number of Python-level steps drops from one per record to one per
crossing.

A bucket that outgrows the budget on its own is *recursively
repartitioned* with the next hash-bit slice, so a key group only has to
fit in memory at the leaves (identical keys can never split — a
pathological single-key bucket stops recursing and is processed in
memory, exactly what an in-memory engine would be forced to do).

**Bitwise parity.**  Every bucket preserves arrival order (spilled
frames first, then the in-memory tail — a bucket spills its *oldest*
records), so each leaf's ``seqs`` ascend.  Leaves run the in-memory
drivers' own kernels over their zipped vectors
(``drivers.fold_into`` / ``group_into``), and each algorithm
reassembles exactly the order the in-memory driver produces:

* hash aggregate / reduce-group — first-occurrence key order, via each
  key's minimal ``seq``;
* hash join — probe arrival order: each leaf emits one result per
  matched pair tagged with the probe's ``seq`` (through the in-memory
  kernels ``drivers._join_pairs`` / ``_pair_results`` when both sides'
  keys are int64), and one stable sort on the tags restores global
  probe order; within one probe, matches keep build arrival order;
* cogroup — the in-memory driver iterates ``left.keys() & right.keys()``
  (or ``|``); rebuilding both key dicts in global first-occurrence
  order and applying the same operator reproduces CPython's set
  iteration order element for element.

After every partition pass the spill conservation law is audited:
``resident + spilled == routed`` (:meth:`InvariantChecker.check_spill`).
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain
from operator import itemgetter

from repro.common import columns as columnar
from repro.common.hashing import stable_hash
from repro.runtime import drivers
from repro.storage.spill import estimate_record_bytes

FANOUT = 8
#: deepest repartition level; 3 bits per level over the 31-bit hash
MAX_LEVEL = 8
#: a bucket smaller than this is always loaded, never repartitioned
_RECURSE_MIN_RECORDS = 9
_ENTRY_OVERHEAD = 64  # a record's seq and key slots plus list growth
#: records sampled for a pass's per-record size estimate
_EST_SAMPLE = 16
#: shorter run segments are grouped in Python, longer ones by numpy
_VECTOR_MIN_SEGMENT = 64


def _bucket_ids(keys, level: int):
    """``(ids, vector)``: the bucket of every key,
    ``(stable_hash(k) >> 3*level) % FANOUT``, and the int64 key vector.

    One vectorized pass for exact-int keys when numpy is importable
    (``stable_hash(int)`` is the int, and numpy's ``>>`` / ``%`` floor
    like Python's), giving ndarray ids; otherwise a list and no vector.
    """
    shift = 3 * level
    vector = columnar.int64_from_values(keys)
    if vector is not None:
        return (vector >> shift) % FANOUT, vector
    return [(stable_hash(k) >> shift) % FANOUT for k in keys], None


def _route(buckets, run, ids, vector, lo: int, hi: int) -> None:
    """Append records ``lo..hi-1`` of ``run`` to their buckets, each
    bucket receiving its records in arrival order.

    A long segment is put in bucket order with one stable argsort and
    gathered once (numpy for the seqs and an int64 key vector), each
    bucket taking a slice; a short one is grouped by a Python loop,
    where numpy's fixed cost per call would dominate (an over-budget
    pass crosses every few records).
    """
    seqs, keys, records = run
    np = columnar.numpy_module()
    if np is None or hi - lo < _VECTOR_MIN_SEGMENT:
        segment = ids[lo:hi]
        groups = [[] for _ in range(FANOUT)]
        for index, bucket in enumerate(
            segment if isinstance(segment, list) else segment.tolist(), lo
        ):
            groups[bucket].append(index)
        for bucket, index in zip(buckets, groups):
            if index:
                bucket.add(map(seqs.__getitem__, index),
                           map(keys.__getitem__, index),
                           map(records.__getitem__, index), len(index))
        return
    # bucket ids fit a byte, where numpy's stable sort is a radix sort
    segment = np.asarray(ids[lo:hi], dtype=np.uint8)
    order = np.argsort(segment, kind="stable") + lo
    index = order.tolist()
    gathered = (
        (order + seqs.start).tolist() if isinstance(seqs, range)
        else list(map(seqs.__getitem__, index)),
        vector[order].tolist() if vector is not None
        else list(map(keys.__getitem__, index)),
        list(map(records.__getitem__, index)),
    )
    start = 0
    for bucket, end in zip(
        buckets,
        np.cumsum(np.bincount(segment, minlength=FANOUT)).tolist(),
    ):
        if end > start:
            bucket.add(*(part[start:end] for part in gathered),
                       end - start)
        start = end


class Bucket:
    """One bucket after a pass: spilled run frames plus a tail run."""

    __slots__ = ("file", "seqs", "keys", "records", "count", "est")

    def __init__(self, est: int):
        self.file = None
        self.seqs: list = []
        self.keys: list = []
        self.records: list = []
        self.count = 0  # records routed here, spilled or resident
        self.est = est

    def add(self, seqs, keys, records, count: int) -> None:
        """Append ``count`` records, as parallel iterables, to the tail."""
        self.seqs.extend(seqs)
        self.keys.extend(keys)
        self.records.extend(records)
        self.count += count

    def resident(self) -> int:
        return len(self.seqs)

    def est_bytes(self) -> int:
        return self.count * self.est

    def runs(self, manager, operator: str):
        """The bucket's runs in arrival order (oldest were spilled
        first), each spill frame read inside a storage span."""
        if self.file is not None:
            yield from manager.read_frames(self.file, operator)
        if self.seqs:
            yield self.seqs, self.keys, self.records

    def load(self, manager, operator: str) -> tuple:
        """The whole bucket as one run; releases the bucket."""
        if self.file is None:
            run = self.seqs, self.keys, self.records
        else:
            run = ([], [], [])
            for frame in self.runs(manager, operator):
                for vector, part in zip(run, frame):
                    vector.extend(part)
        self.release(manager)
        return run

    def release(self, manager) -> None:
        """Drop the tail reservation and delete the spill file."""
        if self.seqs:
            manager.release(len(self.seqs) * self.est)
            self.seqs, self.keys, self.records = [], [], []
        if self.file is not None:
            self.file.delete()
            self.file = None


def partition_pass(manager, operator: str, runs, level: int) -> list[Bucket]:
    """Route ``runs`` into ``FANOUT`` buckets, spilling over budget.

    ``runs`` is any iterable of ``(seqs, keys, records)`` vectors; it is
    consumed streaming, so a pass over a spill file never materializes
    the file.  Audits ``resident + spilled == routed`` on the way out.
    """
    runs = iter(runs)
    head: list = []
    sample: list = []
    for run in runs:
        head.append(run)
        sample.extend(run[2][:_EST_SAMPLE - len(sample)])
        if len(sample) >= _EST_SAMPLE:
            break
    est = estimate_record_bytes(sample) + _ENTRY_OVERHEAD
    buckets = [Bucket(est) for _ in range(FANOUT)]
    routed = 0
    spilled = 0
    for run in chain(head, runs):
        n = len(run[0])
        if not n:
            continue
        ids, vector = _bucket_ids(run[1], level)
        lo = 0
        while lo < n:
            # the segment ends at the record whose reservation first
            # crosses the budget — where a per-record check would flush
            room = (manager.budget_bytes - manager.tracked_bytes) // est + 1
            hi = min(n, lo + max(1, room))
            _route(buckets, run, ids, vector, lo, hi)
            manager.reserve((hi - lo) * est)
            routed += hi - lo
            if manager.over_budget():
                victim = max(buckets, key=Bucket.resident)
                if victim.seqs:
                    spilled += _flush(manager, operator, victim)
            lo = hi

    checker = manager.checker
    if checker is not None:
        resident = sum(b.resident() for b in buckets)
        checker.check_spill(operator, routed, resident, spilled)
    return buckets


def _flush(manager, operator: str, bucket: Bucket) -> int:
    """Spill a bucket's tail run as one frame; returns its size."""
    count = len(bucket.seqs)
    with manager.io_span("spill-write", operator):
        if bucket.file is None:
            bucket.file = manager.new_spill_file(prefix=f"ht-{operator}")
        nbytes = bucket.file.append_run(
            (bucket.seqs, bucket.keys, bucket.records)
        )
        manager.note_spill(operator, count, nbytes)
    manager.release(count * bucket.est)
    bucket.seqs, bucket.keys, bucket.records = [], [], []
    return count


def _leaves(manager, labels, passes, level, parent_records, weighed):
    """Yield one tuple of loaded runs per leaf, one run per input.

    ``passes`` holds each input's buckets (same hash slice, so bucket
    ``i`` of every input holds the same keys).  The first ``weighed``
    inputs decide recursion: a bucket group is repartitioned when their
    estimated bytes exceed the budget, recursion depth remains, and the
    parent pass actually split the data (a single-key bucket absorbs
    everything at every level — recursing on it would never terminate
    usefully).
    """
    for group in zip(*passes):
        records = sum(bucket.count for bucket in group[:weighed])
        if (
            sum(bucket.est_bytes() for bucket in group[:weighed])
            > manager.budget_bytes
            and _RECURSE_MIN_RECORDS <= records < parent_records
            and level < MAX_LEVEL
        ):
            subs = [
                partition_pass(manager, label,
                               bucket.runs(manager, label), level + 1)
                for label, bucket in zip(labels, group)
            ]
            for bucket in group:
                bucket.release(manager)
            yield from _leaves(manager, labels, subs, level + 1, records,
                               weighed)
        else:
            yield tuple(
                bucket.load(manager, label)
                for label, bucket in zip(labels, group)
            )


def _leaf_runs(manager, labels, inputs, weighed=1):
    """Partition every input (in order) at level 0; iterate the leaves."""
    passes = [
        partition_pass(manager, label, runs, 0)
        for label, runs in zip(labels, inputs)
    ]
    routed = sum(b.count for buckets in passes[:weighed] for b in buckets)
    return _leaves(manager, labels, passes, 0, routed, weighed)


def _first_seqs(seqs, keys) -> dict:
    """``{key: seq of its first occurrence}`` over one leaf run (leaf
    seqs ascend, so the last write of the reversed run wins)."""
    return dict(zip(reversed(keys), reversed(seqs)))


# ----------------------------------------------------------------------
# driver algorithms


def spilled_hash_aggregate(manager, operator: str, runs, fn) -> list:
    """Combinable REDUCE; output in global first-occurrence key order."""
    tagged: list = []  # (first seq of key, accumulator)
    for (seqs, keys, records), in _leaf_runs(manager, [operator], [runs]):
        table = drivers.fold_into({}, keys, records, fn)
        firsts = _first_seqs(seqs, keys)
        tagged.extend(zip(map(firsts.__getitem__, table), table.values()))
    tagged.sort(key=itemgetter(0))
    return [acc for _seq, acc in tagged]


def spilled_reduce_group(manager, operator: str, runs, fn) -> list:
    """REDUCE_GROUP; groups emitted in first-occurrence key order."""
    tagged: list = []  # (first seq of key, key, group records)
    for (seqs, keys, records), in _leaf_runs(manager, [operator], [runs]):
        groups = drivers.group_into(defaultdict(list), keys, records)
        firsts = _first_seqs(seqs, keys)
        tagged.extend((firsts[k], k, group) for k, group in groups.items())
    tagged.sort(key=itemgetter(0))
    out: list = []
    for _seq, k, group in tagged:
        out.extend(fn(k, group))
    return out


def spilled_hash_join(manager, operator: str, build_runs, probe_runs, fn,
                      build_left: bool, flat: bool) -> list:
    """Hash join; output in probe arrival order.

    Every leaf appends one raw UDF result per matched pair and the
    pair's probe ``seq``; a stable sort on the seqs puts the results in
    global probe order, then ``None`` results are dropped and ``flat``
    ones extended, as the in-memory driver does.
    """
    np = columnar.numpy_module()
    tags: list = []     # probe seq vectors, one per leaf
    results: list = []  # raw results, parallel to the concatenated tags
    labels = [f"{operator}.build", f"{operator}.probe"]
    for build, probe in _leaf_runs(manager, labels, [build_runs, probe_runs]):
        build_seqs, build_keys, build_records = build
        probe_seqs, probe_keys, probe_records = probe
        if not build_seqs or not probe_seqs:
            continue
        build_vector = columnar.int64_from_values(build_keys)
        probe_vector = (
            None if build_vector is None
            else columnar.int64_from_values(probe_keys)
        )
        if probe_vector is not None:
            order = np.argsort(build_vector, kind="stable")
            build_idx, probe_idx = drivers._join_pairs(
                build_vector[order], order, probe_vector
            )
            results.extend(drivers._pair_results(
                fn, build_records, build_idx, probe_records, probe_idx,
                build_left,
            ))
            seqs = np.array(probe_seqs, dtype=np.int64)
            tags.append(seqs if probe_idx is None else seqs[probe_idx])
            continue
        lookup = drivers.group_into(
            defaultdict(list), build_keys, build_records
        ).get
        leaf_tags: list = []
        for seq, k, probe_record in zip(probe_seqs, probe_keys,
                                        probe_records):
            for build_record in lookup(k, ()):
                results.append(
                    fn(build_record, probe_record) if build_left
                    else fn(probe_record, build_record)
                )
                leaf_tags.append(seq)
        if leaf_tags:
            tags.append(leaf_tags)
    if np is not None and tags:
        order = np.argsort(np.concatenate(tags), kind="stable").tolist()
    else:
        flat_tags = list(chain.from_iterable(tags))
        order = sorted(range(len(flat_tags)), key=flat_tags.__getitem__)
    out: list = []
    drivers._emit_results(map(results.__getitem__, order), flat, out)
    return out


def spilled_cogroup(manager, operator: str, left_runs, right_runs,
                    fn, inner: bool) -> list:
    """COGROUP; reproduces the in-memory driver's key-set iteration.

    Each leaf pair holds every record of its keys, so group contents
    and per-key outputs are computed leaf-locally; only the two key
    dictionaries are rebuilt globally (in first-occurrence order) to
    replay ``keys() & keys()`` / ``keys() | keys()`` exactly.
    """
    left_seen: list = []   # (first seq, key) per distinct left key
    right_seen: list = []
    outputs: dict = {}     # key -> list(fn(...)) results
    labels = [f"{operator}.left", f"{operator}.right"]
    for left, right in _leaf_runs(manager, labels, [left_runs, right_runs],
                                  weighed=2):
        groups = []
        for (seqs, keys, records), seen in ((left, left_seen),
                                            (right, right_seen)):
            group = drivers.group_into(defaultdict(list), keys, records)
            firsts = _first_seqs(seqs, keys)
            seen.extend((firsts[k], k) for k in group)
            groups.append(group)
        left_groups, right_groups = groups
        if inner:
            eligible = [k for k in left_groups if k in right_groups]
        else:
            eligible = list(left_groups)
            eligible.extend(k for k in right_groups if k not in left_groups)
        for k in eligible:
            outputs[k] = list(fn(k, left_groups.get(k, []),
                                 right_groups.get(k, [])))
    left_seen.sort(key=itemgetter(0))
    right_seen.sort(key=itemgetter(0))
    # the in-memory driver unions two *defaultdict* key views, and
    # CPython presizes the union set differently for dict-subclass
    # views than for exact-dict views — which changes set iteration
    # order; the rebuilt dicts must be the same type to replay it
    left_keys: defaultdict = defaultdict(list)
    for _seq, k in left_seen:
        left_keys[k] = None
    right_keys: defaultdict = defaultdict(list)
    for _seq, k in right_seen:
        right_keys[k] = None
    if inner:
        keys = left_keys.keys() & right_keys.keys()
    else:
        keys = left_keys.keys() | right_keys.keys()
    out: list = []
    for k in keys:
        out.extend(outputs[k])
    return out

"""Run-at-a-time Grace hashing: spilled output lists equal in-memory ones.

Every out-of-core algorithm consumes runs ``(seqs, keys, records)`` —
one per key-extraction chunk — and must reproduce the in-memory
driver's output list *including order* for every key type, chunk size
and budget regime:

* ``no-spill`` — a budget nothing crosses;
* ``max-level`` — budget 1 over keys ``8**g`` (``g = 0..9``): every
  level splits one key group off, so the Grace recursion reaches
  ``MAX_LEVEL`` (for the int-valued key types);
* ``single-key`` — budget 1 over one key: a bucket that can never split.

The admission rule itself is pinned separately: the spill events of a
run-based partition pass (operator, records per flush, order) equal a
record-at-a-time reference model.
"""

import pytest

from repro.common import columns as columnar
from repro.common.hashing import stable_hash
from repro.dataflow.contracts import Contract
from repro.dataflow.graph import LogicalNode
from repro.runtime import drivers
from repro.runtime.metrics import MetricsCollector
from repro.runtime.plan import LocalStrategy
from repro.storage import (
    SpillManager,
    StorageSession,
    external_sort,
    hashtable,
)

GROUPS = 10
PER_GROUP = 5

#: key type -> the key standing in for the int ``v``; the int-valued
#: kinds keep ``v``'s hash bits (``stable_hash(float(v)) == v``, and
#: ``1 << 70`` only adds bits above every level's slice)
KINDS = {
    "int": lambda v: v,
    "negative": lambda v: -v,
    "big": lambda v: v + (1 << 70),
    "bool": lambda v: v % 2 == 0,
    "float": float,
    "str": lambda v: f"k{v}",
    "tuple": lambda v: (v % 3, f"t{v}"),
    "mixed": lambda v: (v, f"s{v}", float(v) + 0.5, v % 2 == 1)[v % 4],
}
INT_VALUED = ("int", "negative", "big", "float")


def _deep_values():
    """Key groups ``8**g``, interleaved so arrival order matters."""
    return [8 ** g for _ in range(PER_GROUP) for g in range(GROUPS)]


BUDGETS = {
    "no-spill": (10 ** 9, lambda: [v * 7 % 23 for v in range(60)]),
    "max-level": (1, _deep_values),
    "single-key": (1, lambda: [7] * 40),
}


def _node(contract, udf, inputs=1, flat=False):
    node = LogicalNode(
        contract, [LogicalNode(Contract.SOURCE, data=[])] * inputs,
        udf=udf, key_fields=[(0,)] * inputs,
    )
    node.flat = flat
    return node


def _pair(a, b):
    return (a[1], b[1])


def _maybe_none(a, b):
    return None if (a[1] + b[1]) % 3 == 0 else (a[1], b[1])


def _fan_out(a, b):
    return [(a[1], b[1])] * ((a[1] - b[1]) % 3)


def _sum(a, b):
    return (a[0], a[1] + b[1])


ALGORITHMS = {
    "hash-aggregate": (_node(Contract.REDUCE, _sum),
                       LocalStrategy.HASH_AGGREGATE),
    "reduce-group": (
        _node(Contract.REDUCE_GROUP,
              lambda k, group: [(k, len(group), [r[1] for r in group])]),
        None,
    ),
    "hash-join": (_node(Contract.MATCH, _pair, 2),
                  LocalStrategy.HASH_BUILD_LEFT),
    "hash-join-right-none": (_node(Contract.MATCH, _maybe_none, 2),
                             LocalStrategy.HASH_BUILD_RIGHT),
    "hash-join-flat": (_node(Contract.MATCH, _fan_out, 2, flat=True),
                       LocalStrategy.HASH_BUILD_LEFT),
    "cogroup": (
        _node(Contract.COGROUP,
              lambda k, ls, rs: [(k, [r[1] for r in ls], len(rs))], 2),
        None,
    ),
    "inner-cogroup": (
        _node(Contract.INNER_COGROUP,
              lambda k, ls, rs: [(k, len(ls), [r[1] for r in rs])], 2),
        None,
    ),
    "sort-aggregate": (_node(Contract.REDUCE, _sum),
                       LocalStrategy.SORT_AGGREGATE),
    "sort-merge-join": (_node(Contract.MATCH, _pair, 2),
                        LocalStrategy.SORT_MERGE),
}
#: sorting needs mutually comparable keys (an in-memory contract too)
UNSORTABLE = {("sort-aggregate", "mixed"), ("sort-merge-join", "mixed")}


def _inputs(kind, regime, arity):
    to_key = KINDS[kind]
    values = BUDGETS[regime][1]()
    left = [(to_key(v), i) for i, v in enumerate(values)]
    if arity == 1:
        return [left]
    right = [(to_key(v), -i) for i, v in enumerate(values[::-3])]
    right.append((to_key(values[0] + 1), 99))  # a right-only key
    return [left, right]


def _run(node, strategy, inputs, batch_size, spill=None):
    return drivers.run_driver(node, strategy, inputs, MetricsCollector(),
                              batch_size=batch_size, spill=spill,
                              columnar=True)


def _spilled(node, strategy, inputs, batch_size, budget):
    with StorageSession() as session:
        manager = SpillManager(budget, session, metrics=MetricsCollector())
        out = _run(node, strategy, inputs, batch_size, spill=manager)
        assert manager.tracked_bytes == 0  # every reservation released
        return out, manager.records_spilled


@pytest.mark.parametrize("regime", list(BUDGETS))
@pytest.mark.parametrize("batch_size", [None, 1, 7])
@pytest.mark.parametrize("algorithm,kind", [
    (algorithm, kind) for algorithm in ALGORITHMS for kind in KINDS
    if (algorithm, kind) not in UNSORTABLE
])
def test_spilled_output_list_equals_in_memory(algorithm, kind, batch_size,
                                              regime):
    node, strategy = ALGORITHMS[algorithm]
    inputs = _inputs(kind, regime, len(node.inputs))
    expected = _run(node, strategy, inputs, batch_size)
    got, spilled = _spilled(node, strategy, inputs, batch_size,
                            BUDGETS[regime][0])
    assert got == expected
    assert (spilled > 0) == (regime != "no-spill")


@pytest.mark.parametrize("kind", INT_VALUED)
def test_max_level_regime_reaches_max_level(monkeypatch, kind):
    levels = []
    original = hashtable.partition_pass

    def spy(manager, operator, runs, level):
        levels.append(level)
        return original(manager, operator, runs, level)

    monkeypatch.setattr(hashtable, "partition_pass", spy)
    node, strategy = ALGORITHMS["hash-aggregate"]
    inputs = _inputs(kind, "max-level", 1)
    got, _ = _spilled(node, strategy, inputs, 7, 1)
    assert got == _run(node, strategy, inputs, 7)
    assert max(levels) == hashtable.MAX_LEVEL


@pytest.mark.parametrize("algorithm", [
    "hash-aggregate", "reduce-group", "hash-join-flat",
    "hash-join-right-none", "cogroup", "sort-merge-join",
])
def test_parity_without_numpy(monkeypatch, algorithm):
    """The per-key hash and pure-Python grouping fallbacks."""
    node, strategy = ALGORITHMS[algorithm]
    inputs = _inputs("int", "max-level", len(node.inputs))
    expected = _run(node, strategy, inputs, 7)
    monkeypatch.setattr(columnar, "_np", None)
    got, spilled = _spilled(node, strategy, inputs, 7, 1)
    assert got == expected and spilled > 0


# ----------------------------------------------------------------------
# the admission rule


def _reference_events(keys, level, est, budget, tracked):
    """Record-at-a-time admission: route, reserve, and when over budget
    flush the longest tail (the first one on ties)."""
    tails = [0] * hashtable.FANOUT
    events = []
    for k in keys:
        tails[(stable_hash(k) >> 3 * level) % hashtable.FANOUT] += 1
        tracked += est
        if tracked > budget:
            victim = tails.index(max(tails))
            if tails[victim]:
                events.append(("op", tails[victim]))
                tracked -= tails[victim] * est
                tails[victim] = 0
    return events, tracked


@pytest.mark.parametrize("kind", ["int", "str"])
@pytest.mark.parametrize("level", [0, 2])
@pytest.mark.parametrize("batch_size", [None, 1, 7])
@pytest.mark.parametrize("budget", [1, 2_000, 9_000])
@pytest.mark.parametrize("reserved", [0, 5_000])
def test_run_pass_spill_events_equal_per_record_rule(kind, level, batch_size,
                                                     budget, reserved):
    to_key = KINDS[kind]
    records = [(to_key(v * 37 % 101), v) for v in range(300)]
    events = []
    with StorageSession() as session:
        manager = SpillManager(budget, session)

        def note_spill(operator, count, nbytes):
            events.append((operator, count))

        manager.note_spill = note_spill
        manager.reserve(reserved)
        buckets = hashtable.partition_pass(
            manager, "op", drivers._runs(records, (0,), batch_size), level
        )
        expected, tracked = _reference_events(
            [k for k, _v in records], level, buckets[0].est, budget,
            reserved,
        )
        assert events == expected
        assert manager.tracked_bytes == tracked
        for bucket in buckets:
            bucket.release(manager)


def _reference_sort_events(count, est, budget, tracked):
    """The sorter's record-at-a-time admission: the estimate settles
    (and reserves the first 15 records) when the 16th arrives; a flush
    writes the resident run as frames of ``_RUN_FRAME`` records."""
    resident = 0
    events = []
    for index in range(count):
        if index == external_sort._UNESTIMATED:
            tracked += est * index
        resident += 1
        if index < external_sort._UNESTIMATED:
            continue
        tracked += est
        if tracked > budget and resident >= external_sort._MIN_RUN:
            for start in range(0, resident, external_sort._RUN_FRAME):
                events.append(
                    ("op", min(resident - start, external_sort._RUN_FRAME))
                )
            tracked -= est * resident
            resident = 0
    return events, tracked


@pytest.mark.parametrize("batch_size", [None, 1, 7])
@pytest.mark.parametrize("budget", [1, 20_000, 90_000])
@pytest.mark.parametrize("reserved", [0, 15_000])
def test_sorter_spill_events_equal_per_record_rule(batch_size, budget,
                                                   reserved):
    records = [(v * 37 % 101, v) for v in range(1_200)]
    events = []
    with StorageSession() as session:
        manager = SpillManager(budget, session)
        manager.note_spill = (
            lambda operator, count, nbytes: events.append((operator, count))
        )
        manager.reserve(reserved)
        sorter = external_sort.ExternalSorter(manager, "op")
        for run in drivers._runs(records, (0,), batch_size):
            sorter.add_run(*run)
        expected, tracked = _reference_sort_events(
            len(records), sorter._est, budget, reserved
        )
        assert events == expected
        assert manager.tracked_bytes == tracked
        assert [(k, s) for k, s, _r in sorter.merge()] == sorted(
            (k, s) for s, (k, _v) in enumerate(records)
        )

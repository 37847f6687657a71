"""Superstep solution-set operators read runs, equal to per-record probes.

The stateful solution join and cogroup, and the ∪̇ staging at the
superstep barrier, read each partition as a run: the probe keys come
from the batch key vectors (grouped first, for the cogroup), go through
the partition mapping's ``get`` in one pass, and the solution accesses
are counted once per partition.  The reference model below interprets
them one record at a time instead: one ``SolutionSetIndex.lookup`` per
group, per probe and per key not yet staged, then the arrival-order
winner logic.  Random solution sets, probe rounds, UDFs, comparators,
key types and batch sizes must leave both worlds identical after every
round: operator output lists in order, staged winners, solution
partitions (insertion order included) and the logical counters.

The end-to-end pins record what the superstep delta jobs print —
results, logical counters with the iteration log, and the logical span
structure — for CC's cogroup and match plans, transitive closure's
outer cogroup and the disk-backed solution set: one digest per case,
the same on both backends.
"""

import hashlib
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import ExecutionEnvironment
from repro.algorithms import connected_components as cc
from repro.algorithms import transitive_closure as tc
from repro.common.hashing import partition_index
from repro.common.keys import KeyExtractor
from repro.graphs import erdos_renyi
from repro.iterations.solution_set import SolutionSetIndex
from repro.observability import LOGICAL_SPAN_COUNTERS
from repro.runtime.config import RuntimeConfig
from repro.runtime.executor import Executor
from repro.runtime.invariants import attach_checker
from repro.runtime.metrics import MetricsCollector

#: solution keys are encodings of 0..KEYS-1; probes reach KEYS+1, so
#: some miss
KEYS = 6
SPAN = KEYS + 2
ROUNDS = 3

#: key kind -> (key fields, encoding of key number i as leading fields);
#: only "int" keys vectorise
KINDS = {
    "int": ((0,), lambda i: (i,)),
    "bool": ((0,), lambda i: (i % 2 == 1,)),
    "str": ((0,), lambda i: (f"v{i}",)),
    "composite": ((0, 1), lambda i: (i % 3, f"c{i // 3}")),
}


def _record(key_value, value):
    """A record with key ``key_value``: records are the key's fields,
    then the value."""
    if isinstance(key_value, tuple):
        return (*key_value, value)
    return (key_value, value)


# ----------------------------------------------------------------------
# the per-record reference


def reference_join(node, index, probe_parts, metrics):
    key = KeyExtractor(node.key_fields[0])
    out = []
    for p, part in enumerate(probe_parts):
        results = []
        metrics.add_processed(node.name, len(part))
        for probe in part:
            stored = index.lookup(p, key(probe))
            result = None if stored is None else node.udf(probe, stored)
            if result is None:
                continue
            results.extend(result) if node.flat else results.append(result)
        out.append(results)
    return out


def reference_cogroup(node, index, probe_parts, metrics):
    key = KeyExtractor(node.key_fields[0])
    out = []
    for p, part in enumerate(probe_parts):
        groups = {}
        for record in part:
            groups.setdefault(key(record), []).append(record)
        metrics.add_processed(node.name, len(part))
        results = []
        for key_value, group in groups.items():
            stored = index.lookup(p, key_value)
            if stored is not None:
                results.extend(node.udf(key_value, group, [stored]))
            elif not node.inner:
                results.extend(node.udf(key_value, group, []))
        out.append(results)
    return out


def reference_stage(node, index, routed_parts):
    key = KeyExtractor(node.solution_key)
    staged = []
    for p, part in enumerate(routed_parts):
        winners = {}
        for record in part:
            k = key(record)
            incumbent = winners.get(k)
            if incumbent is None:
                incumbent = index.lookup(p, k)
            if (
                incumbent is not None
                and node.should_replace is not None
                and not node.should_replace(record, incumbent)
            ):
                continue
            winners[k] = record
        staged.append(winners)
    return staged, [list(winners.values()) for winners in staged]


def reference_commit(index, staged, metrics):
    applied = 0
    for p, winners in enumerate(staged):
        for k, record in winners.items():
            index._partitions[p][k] = record
            applied += 1
    if applied:
        metrics.add_solution_update(applied)


# ----------------------------------------------------------------------
# random scenarios

JOIN_UDFS = {
    "improve": (False, lambda c, s: (*s[:-1], c[-1]) if c[-1] < s[-1]
                else None),
    "always": (False, lambda c, s: c),
    # 0, 1 or 2 deltas on one key, the larger value first: a comparator
    # may reject the first and accept the second
    "flat": (True, lambda c, s: [c, (*c[:-1], c[-1] - 1)][:c[-1] % 3]),
}
COGROUP_UDFS = {
    "min": lambda k, group, stored: [
        _record(k, m) for m in [min(r[-1] for r in group)]
        if not stored or m < stored[0][-1]
    ],
    # every candidate is a delta: repeated keys within one delta
    "all": lambda k, group, stored: list(group),
    # the semi-naive anti-join of transitive closure
    "absent": lambda k, group, stored: [] if stored else [group[-1]],
}


@st.composite
def scenarios(draw):
    access = draw(st.sampled_from(["join", "cogroup"]))
    udfs = JOIN_UDFS if access == "join" else COGROUP_UDFS
    return SimpleNamespace(
        parallelism=draw(st.integers(1, 3)),
        kind=draw(st.sampled_from(sorted(KINDS))),
        access=access,
        udf=draw(st.sampled_from(sorted(udfs))),
        inner=draw(st.booleans()),
        comparator=draw(st.booleans()),
        solution=draw(st.lists(st.integers(-3, 9), min_size=KEYS,
                               max_size=KEYS)),
        rounds=draw(st.lists(
            st.lists(st.tuples(st.integers(0, SPAN - 1),
                               st.integers(-3, 9)), max_size=12),
            min_size=1, max_size=ROUNDS,
        )),
        batch_size=draw(st.sampled_from([1, 3, None])),
    )


class _Executor(Executor):
    """The solution operators of an executor, fed one round's probes."""

    def __init__(self, metrics, parallelism, batch_size, index):
        self.metrics = metrics
        self.parallelism = parallelism
        self.batch_size = batch_size
        self.index = index
        self.probe_parts = None

    def _solution_scope(self, node, scope):
        return SimpleNamespace(solution_index=self.index)

    def _ship_one_input(self, node, idx, step_memo, scope, default=None):
        assert idx == 0
        return self.probe_parts


def _route(records, key, parallelism):
    """Hash-route records, keeping arrival order within each target."""
    parts = [[] for _ in range(parallelism)]
    for record in records:
        parts[partition_index(key(record), parallelism)].append(record)
    return parts


def _play(scenario, run):
    """One world's snapshot after every round: the access operator's
    output, the staged winners, the solution partitions and counters."""
    key_fields, encode = KINDS[scenario.kind]
    key = KeyExtractor(key_fields)
    parallelism = scenario.parallelism
    metrics = MetricsCollector()
    attach_checker(metrics)
    index = SolutionSetIndex.build(
        [(*encode(i), v) for i, v in enumerate(scenario.solution)],
        key_fields, parallelism, metrics=metrics,
    )
    if scenario.access == "join":
        flat, udf = JOIN_UDFS[scenario.udf]
    else:
        flat, udf = False, COGROUP_UDFS[scenario.udf]
    node = SimpleNamespace(
        name="access", key_fields=(key_fields, key_fields), udf=udf,
        flat=flat, inner=scenario.inner, solution_key=key_fields,
        should_replace=(lambda new, old: new[-1] < old[-1])
        if scenario.comparator else None,
    )
    executor = _Executor(metrics, parallelism, scenario.batch_size, index)
    snapshots = []
    for probes in scenario.rounds:
        probe_parts = _route([(*encode(i), v) for i, v in probes], key,
                             parallelism)
        if run:
            executor.probe_parts = probe_parts
            operator = (executor._run_solution_join
                        if scenario.access == "join"
                        else executor._run_solution_cogroup)
            out = operator(node, None, None)
        else:
            reference = (reference_join if scenario.access == "join"
                         else reference_cogroup)
            out = reference(node, index, probe_parts, metrics)
        routed = _route([r for part in out for r in part], key, parallelism)
        if run:
            staged, accepted = executor._stage_delta(node, index, routed)
            executor._commit_delta(index, staged)
        else:
            staged, accepted = reference_stage(node, index, routed)
            reference_commit(index, staged, metrics)
        snapshots.append((
            out,
            [list(winners.items()) for winners in staged],
            accepted,
            index.snapshot(),
            metrics.logical(),
        ))
    return snapshots


@settings(max_examples=300, deadline=None)
@given(scenario=scenarios())
# the flat UDF's first delta (0, 5) is rejected against the stored
# (0, 5); the second, (0, 4), probes S again and is accepted
@example(scenario=SimpleNamespace(
    parallelism=1, kind="int", access="join", udf="flat", inner=True,
    comparator=True, solution=[5] * KEYS, rounds=[[(0, 5)]], batch_size=1,
))
def test_run_operators_equal_per_record_reference(scenario):
    assert _play(scenario, run=True) == _play(scenario, run=False)


# ----------------------------------------------------------------------
# end to end: the superstep delta jobs are what they were under
# per-record probes


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _logical_structure(structure):
    """A ``structure()`` encoding without the per-worker storage spans."""
    return tuple(
        (name, category, counters, _logical_structure(children))
        for name, category, counters, children in structure
        if category != "storage"
    )


def _cc(variant):
    def job(env):
        return sorted(cc.cc_incremental(
            env, erdos_renyi(90, 2.5, seed=11), variant=variant,
            mode="superstep",
        ).items())
    return job


def _tc(env):
    graph = erdos_renyi(24, 1.5, seed=7)
    edges = sorted({(int(s), int(d)) for s, d in graph.edge_tuples()})
    return sorted(tc.tc_semi_naive(env, edges))


#: case -> (config options, job)
CASES = {
    "cc-cogroup": ({}, _cc("cogroup")),
    "cc-match": ({}, _cc("match")),
    "tc-outer": ({}, _tc),
    # the solution partitions are DiskDicts
    "cc-cogroup-disk": ({"memory_budget_bytes": 4096}, _cc("cogroup")),
    "cc-match-disk": ({"memory_budget_bytes": 4096}, _cc("match")),
}

#: (results, logical counters + iteration log, span structure) digests,
#: recorded under per-record probes.  The CC plans read the staged delta
#: forward (its ∪̇ staging already put it on the solution key's
#: partitions): cc-cogroup hash-places the edge table instead of
#: broadcasting it, and cc-match's staging ship is forward, since its
#: delta arrives partitioned on the solution key
GOLDEN = {
    "cc-cogroup": ("77287652efe8559b", "90354e7303960259",
                   "61fb4b5022a1982b"),
    "cc-match": ("77287652efe8559b", "99ed04a08db11b6c",
                 "be8179c7e1b22208"),
    "tc-outer": ("b1056851bc7bb35a", "3336f4c1f67f9b48",
                 "ff31509816b1383b"),
    "cc-cogroup-disk": ("77287652efe8559b", "90354e7303960259",
                        "61fb4b5022a1982b"),
    "cc-match-disk": ("77287652efe8559b", "99ed04a08db11b6c",
                      "be8179c7e1b22208"),
}


@pytest.mark.parametrize("backend", ["simulated", "pool"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_superstep_jobs_pin_results_counters_and_spans(case, backend):
    options, job = CASES[case]
    config = RuntimeConfig(check_invariants=True, trace=True, **options)
    with ExecutionEnvironment(4, backend=backend, config=config) as env:
        result = job(env)
        env.metrics.verify_invariants()
        spans = env.tracer.structure(LOGICAL_SPAN_COUNTERS)
        got = (
            _digest(result),
            _digest(env.metrics.logical()),
            _digest(_logical_structure(spans)),
        )
        if options:
            assert env.metrics.records_spilled > 0
    assert got == GOLDEN[case]

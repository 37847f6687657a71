"""Run-at-a-time microstep drains equal record-at-a-time dispatch.

A drain pops a run — the whole queue, or what an asynchronous poll may
still take — folds it through the solution set in arrival order and
routes its emissions in one pass.  The reference model below dispatches
one record at a time instead: the record through the delta chain (the
solution access is ``SolutionSetIndex.lookup``), each delta through
``SolutionSetIndex.apply_record``, each accepted delta through the
workset chain, each emission routed alone.  Random plans, solution sets,
queues and poll limits must leave both worlds identical after every
drain: queue contents and order, routed buffers, solution partitions
(insertion order included) and the logical counters.

The end-to-end pins record what CC-match printed before drains became
run-at-a-time: results, logical counters with the iteration log, and
the logical span structure, for microstep and async on both backends.
"""

import hashlib
from collections import deque
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionEnvironment
from repro.algorithms import connected_components as cc
from repro.bench.audit import _comparable_counters
from repro.common.hashing import partition_index
from repro.dataflow.contracts import Contract
from repro.dataflow.graph import LogicalNode
from repro.graphs import erdos_renyi
from repro.iterations import microstep_runtime
from repro.iterations.solution_set import SolutionSetIndex
from repro.observability import LOGICAL_SPAN_COUNTERS
from repro.runtime.config import RuntimeConfig
from repro.runtime.invariants import attach_checker
from repro.runtime.metrics import MetricsCollector

#: solution keys are 0..KEYS-1; workset keys reach KEYS+1, so some miss
KEYS = 6
SPAN = KEYS + 2
ROUNDS = 4

# ----------------------------------------------------------------------
# the record-at-a-time reference


def reference_stage(op, p, record, index, constants):
    """One record through one operator; every key is field 0."""
    contract, fn = op.contract, op.udf
    if contract is Contract.MAP:
        return [fn(record)]
    if contract is Contract.FLAT_MAP:
        return list(fn(record))
    if contract is Contract.FILTER:
        return [record] if fn(record) else []
    if contract is Contract.SOLUTION_JOIN:
        stored = index.lookup(p, record[0])
        result = None if stored is None else fn(record, stored)
        if result is None:
            return []
        return list(result) if op.flat else [result]
    out = []
    for other in constants[op.id][p]:  # MATCH scans, CROSS pairs all
        if contract is Contract.MATCH and other[0] != record[0]:
            continue
        result = fn(record, other)
        if result is not None:
            out.extend(result) if op.flat else out.append(result)
    return out


def reference_chain(ops, p, records, world):
    for op in ops:
        records = [
            out for record in records
            for out in reference_stage(op, p, record, world.index,
                                       world.constants)
        ]
    return records


def reference_drain(world, queue, p, route, limit):
    processed = 0
    while queue and (limit is None or processed < limit):
        record = queue.popleft()
        processed += 1
        for delta in reference_chain(world.to_delta, p, [record], world):
            accepted = world.index.apply_record(delta)
            if accepted is None:
                continue
            for produced in reference_chain(world.to_workset, p,
                                            [accepted], world):
                route([produced], p)
    return processed


def reference_route(world, into):
    def route(records, source):
        (record,) = records
        target = partition_index(record[0], world.parallelism)
        into[target].append(record)
        world.metrics.add_shipped(local=int(target == source),
                                  remote=int(target != source))
    return route


def run_drain(world, queue, p, route, limit):
    return microstep_runtime._drain_queue(queue, p, world.pipeline, route,
                                          limit)


def run_route(world, into):
    def route(records, source):
        microstep_runtime._scatter(world.executor, records, source, (0,),
                                   into)
    return route


# ----------------------------------------------------------------------
# random plans

PRE = {
    "map": (Contract.MAP, lambda w: (w[0], w[1] + 1)),
    "filter": (Contract.FILTER, lambda w: w[1] % 3 != 0),
}
ACCESS = {
    "improve": (False, lambda c, s: (s[0], c[1]) if c[1] < s[1] else None),
    "always": (False, lambda c, s: (s[0], c[1])),
    "half-none": (False, lambda c, s: None if (c[1] + s[1]) % 2
                  else (s[0], c[1] - 1)),
    # 0, 1 or 2 deltas per record on one key: the comparator must judge
    # the second against the first
    "flat": (True, lambda c, s: [(s[0], c[1] - 1), (s[0], c[1])][:c[1] % 3]),
}
POST = {
    "map": (Contract.MAP, lambda d: (d[0], d[1] - 1)),
}
WORKSET = {
    "map": (Contract.MAP, False, lambda d: ((d[0] + d[1]) % SPAN, d[1])),
    "flat_map": (Contract.FLAT_MAP, False, lambda d: [
        ((d[0] + 1) % SPAN, d[1]), ((d[0] * 2) % SPAN, d[1] + 1),
    ]),
    "match": (Contract.MATCH, False,
              lambda d, e: None if e[1] == d[0] else (e[1], d[1])),
    "match-flat": (Contract.MATCH, True,
                   lambda d, e: [(e[1], d[1]), (e[1], d[1] + 1)]),
    "cross": (Contract.CROSS, False,
              lambda d, o: ((d[0] + o[0]) % SPAN, d[1]) if o[0] < 3
              else None),
}
records = st.tuples(st.integers(0, SPAN - 1), st.integers(-3, 9))


@st.composite
def scenarios(draw):
    return SimpleNamespace(
        parallelism=draw(st.integers(1, 3)),
        pre=draw(st.lists(st.sampled_from(sorted(PRE)), max_size=2)),
        access=draw(st.sampled_from([*sorted(ACCESS), "none"])),
        post=draw(st.lists(st.sampled_from(sorted(POST)), max_size=1)),
        workset=draw(st.lists(st.sampled_from(sorted(WORKSET)), max_size=2)),
        comparator=draw(st.booleans()),
        solution=draw(st.lists(st.integers(0, 9), min_size=KEYS,
                               max_size=KEYS)),
        queued=draw(st.lists(records, max_size=12)),
        edges=draw(st.lists(st.tuples(st.integers(0, SPAN - 1),
                                      st.integers(0, SPAN - 1)),
                            max_size=10)),
        limit=draw(st.sampled_from([None, 1, 3, 64])),
    )


def _chain(scenario):
    """The scenario's plan: ``(head, to_delta, to_workset, constants)``."""
    head = LogicalNode(Contract.SOURCE, data=[])
    solution = LogicalNode(Contract.SOURCE, data=[])
    to_delta, to_workset, constants = [], [], {}

    def add(chain, contract, fn, const=None, flat=False):
        inputs = [chain[-1] if chain else head]
        key_fields = [None]
        if const is not None:
            inputs.append(LogicalNode(Contract.SOURCE, data=[]))
            key_fields = [(0,), (0,)]
        node = LogicalNode(contract, inputs, udf=fn, key_fields=key_fields)
        node.flat = flat
        if const is not None:
            constants[node.id] = const
        chain.append(node)

    for name in scenario.pre:
        add(to_delta, *PRE[name])
    if scenario.access != "none":  # without one, every record is a delta
        flat, fn = ACCESS[scenario.access]
        access = LogicalNode(
            Contract.SOLUTION_JOIN,
            [to_delta[-1] if to_delta else head, solution],
            udf=fn, key_fields=[(0,), (0,)],
        )
        access.flat = flat
        to_delta.append(access)
    for name in scenario.post:
        add(to_delta, *POST[name])
    parts = range(scenario.parallelism)
    for name in scenario.workset:
        contract, flat, fn = WORKSET[name]
        const = None
        if contract is Contract.MATCH:  # hash-placed on the join key
            const = [[e for e in scenario.edges
                      if partition_index(e[0], scenario.parallelism) == p]
                     for p in parts]
        elif contract is Contract.CROSS:  # broadcast
            const = [[(1,), (2,), (3,)] for _ in parts]
        add(to_workset, contract, fn, const, flat)
    return head, to_delta, to_workset, constants


class _Executor:
    """What pipeline compilation reads of an executor."""

    batch_size = None

    def __init__(self, metrics, parallelism, constants):
        self.metrics = metrics
        self.parallelism = parallelism
        self.constants = constants

    def _ship_one_input(self, op, idx, memo, scope):
        assert idx == 1
        return self.constants[op.id]


def _world(scenario, compiled):
    head, to_delta, to_workset, constants = _chain(scenario)
    metrics = MetricsCollector()
    attach_checker(metrics)
    index = SolutionSetIndex.build(
        [(k, v) for k, v in enumerate(scenario.solution)], (0,),
        scenario.parallelism, metrics=metrics,
        should_replace=(lambda new, old: new[1] < old[1])
        if scenario.comparator else None,
    )
    queues = [deque() for _ in range(scenario.parallelism)]
    for record in scenario.queued:
        queues[partition_index(record[0], scenario.parallelism)].append(
            record
        )
    world = SimpleNamespace(
        parallelism=scenario.parallelism, metrics=metrics, index=index,
        queues=queues, constants=constants, to_delta=to_delta,
        to_workset=to_workset,
    )
    if compiled:
        world.executor = _Executor(metrics, scenario.parallelism, constants)
        scope = SimpleNamespace(
            solution_index=index, iter_memo={},
            dynamic_ids={n.id for n in [head, *to_delta, *to_workset]},
        )
        world.pipeline = microstep_runtime._compile_pipeline(
            world.executor, scope,
            SimpleNamespace(chain_to_delta=to_delta,
                            chain_to_workset=to_workset),
        )
    return world


def _drive(world, drain, make_route, limit):
    """Round-robin polls; ``limit=None`` buffers emissions to the end of
    the round (microstep), a limit routes them straight into the queues,
    the draining one included (async).  One snapshot per drain."""
    snapshots = []
    for _round in range(ROUNDS):
        into = (
            [[] for _ in world.queues] if limit is None else world.queues
        )
        route = make_route(world, into)
        for p, queue in enumerate(world.queues):
            taken = drain(world, queue, p, route, limit)
            metrics = world.metrics
            snapshots.append((
                taken,
                [list(q) for q in world.queues],
                [list(b) for b in into],
                [list(part.items()) for part in world.index._partitions],
                metrics.solution_accesses, metrics.solution_updates,
                metrics.records_shipped_local,
                metrics.records_shipped_remote,
            ))
        if limit is None:
            for queue, buffered in zip(world.queues, into):
                queue.extend(buffered)
    return snapshots


@settings(max_examples=300, deadline=None)
@given(scenario=scenarios())
def test_run_drains_equal_record_at_a_time_reference(scenario):
    expected = _drive(_world(scenario, compiled=False), reference_drain,
                      reference_route, scenario.limit)
    got = _drive(_world(scenario, compiled=True), run_drain, run_route,
                 scenario.limit)
    assert got == expected


# ----------------------------------------------------------------------
# end to end: CC-match is what it was under record-at-a-time drains


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


#: (results, logical counters + iteration log, span structure) digests
GOLDEN = {
    "microstep": ("77287652efe8559b", "80bc33b71401ecd2",
                  "0d9f6b6b27c17950"),
    "async": ("77287652efe8559b", "4ef48217fee25d7b", "972a37c696f2d21d"),
    "async-poll-1": ("77287652efe8559b", "2ce2511fcfab4e01",
                     "f26dfb31f7284c16"),
    "async-poll-3": ("77287652efe8559b", "7251d2a0b5a39f81",
                     "9d8e526202005a6f"),
}


@pytest.mark.parametrize("case,backend", [
    ("microstep", "simulated"), ("microstep", "pool"),
    ("async", "simulated"), ("async", "pool"),
    ("async-poll-1", "simulated"), ("async-poll-3", "simulated"),
])
def test_cc_match_pins_results_counters_and_spans(case, backend):
    mode, _, poll = case.partition("-poll-")
    options = {"async_poll_batch": int(poll)} if poll else {}
    config = RuntimeConfig(check_invariants=True, trace=True, **options)
    with ExecutionEnvironment(4, backend=backend, config=config) as env:
        result = cc.cc_incremental(env, erdos_renyi(90, 2.5, seed=11),
                                   variant="match", mode=mode)
        got = (
            _digest(sorted(result.items())),
            _digest(_comparable_counters(env.metrics)),
            _digest(env.tracer.structure(LOGICAL_SPAN_COUNTERS)),
        )
    assert got == GOLDEN[case]

"""Layer probes: direct timed calls into the engine's public functions.

Each probe feeds one layer records cut from the ``cc-delta-sim`` graph
of the run's seed and reports records per second (or the unit in its
name) as the median of ``REPEATS`` calls.  A probe says how fast a
layer is in isolation; ``layers.py`` says how much of a job it is.
"""

from __future__ import annotations

import statistics
import time

from repro import ExecutionEnvironment
from repro.algorithms import connected_components as cc
from repro.cluster import PoolBackend
from repro.common import columns
from repro.common.batch import RecordBatch
from repro.dataflow.contracts import Contract
from repro.dataflow.graph import LogicalNode
from repro.iterations.solution_set import (
    DiskBackedSolutionSetIndex,
    SolutionSetIndex,
)
from repro.runtime import channels, drivers
from repro.runtime.config import RuntimeConfig
from repro.runtime.metrics import MetricsCollector
from repro.runtime.plan import BROADCAST, LocalStrategy, partition_on
from repro.storage.session import StorageSession
from repro.storage.spill import SpillFile, SpillManager

from benchmarks.perf.session import POOL_TIMEOUT_S, noop_program
from benchmarks.perf.workloads import PARALLELISM, RMAT_SCALE, rmat_with_tail

REPEATS = 5
EDGES = 40_000
#: small enough that every out-of-core probe really spills
SPILL_PROBE_BUDGET = 64 * 1024
NOOP_JOBS = 20
ALLREDUCE_ROUNDS = 200
EXCHANGE_ROUNDS = 10


def _median_seconds(call, fresh=None) -> float:
    """Median wall time of ``call(fresh())`` over ``REPEATS`` calls;
    ``fresh`` rebuilds consumed inputs outside the clock."""
    times = []
    for _ in range(REPEATS):
        argument = fresh() if fresh is not None else None
        started = time.perf_counter()
        call(argument)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def _node(contract, key_fields, udf, name):
    return LogicalNode(contract, udf=udf, key_fields=key_fields, name=name)


def _join_node():
    """CC's candidate step: label(v) joined onto the out-edges of v."""
    return _node(Contract.MATCH, [(0,), (0,)],
                 lambda vertex, edge: (edge[1], vertex[1]), "probe:join")


def _min_label_node():
    """CC's update step: the smallest candidate label per vertex."""
    return _node(Contract.REDUCE, [(0,)],
                 lambda a, b: a if a[1] <= b[1] else b, "probe:min_label")


def _driver_rps(node, strategy, inputs, metrics, batch_size, **mode):
    """Records per second through ``drivers.run_driver``; ``mode`` picks
    the in-memory columnar kernels or a spill manager's out-of-core twin."""
    records = sum(len(part) for part in inputs)
    return records / _median_seconds(lambda _: drivers.run_driver(
        node, strategy, inputs, metrics, batch_size=batch_size, **mode
    ))


def _dataplane(edges, vertices, batch_size) -> dict:
    edge_parts = channels.round_robin(edges, PARALLELISM)
    vertex_parts = channels.round_robin(vertices, PARALLELISM)
    metrics = MetricsCollector()
    by_source = partition_on((0,))

    def column_born(_=None):
        _arity, cols = columns.columnarize(list(edges))
        return RecordBatch.from_columns(len(edges), cols, (0,))

    join = _join_node()
    candidates = drivers.run_driver(
        join, LocalStrategy.HASH_BUILD_LEFT, [vertices, edges], metrics,
        batch_size=batch_size, columnar=True,
    )
    cogroup = _node(
        Contract.INNER_COGROUP, [(0,), (0,)],
        lambda vid, group, stored: [(vid, min(c for _v, c in group))],
        "probe:cogroup",
    )
    reduce = _min_label_node()

    def driver_rate(node, strategy, inputs):
        return _driver_rps(node, strategy, inputs, metrics, batch_size,
                           columnar=True)

    return {
        "probe.batch.scatter_rps": len(edges) / _median_seconds(
            lambda batch: batch.scatter(PARALLELISM), column_born
        ),
        "probe.channels.ship_hash_rps": len(edges) / _median_seconds(
            lambda _: channels.ship(edge_parts, by_source, PARALLELISM,
                                    batch_size=batch_size, columnar=True)
        ),
        "probe.channels.ship_broadcast_rps": len(vertices) / _median_seconds(
            lambda _: channels.ship(vertex_parts, BROADCAST, PARALLELISM,
                                    batch_size=batch_size)
        ),
        "probe.drivers.hash_join_rps": driver_rate(
            join, LocalStrategy.HASH_BUILD_LEFT, [vertices, edges]
        ),
        "probe.drivers.cogroup_rps": driver_rate(
            cogroup, LocalStrategy.SORT_COGROUP, [candidates, vertices]
        ),
        "probe.drivers.hash_aggregate_rps": driver_rate(
            reduce, LocalStrategy.HASH_AGGREGATE, [candidates]
        ),
        "probe.drivers.sort_aggregate_rps": driver_rate(
            reduce, LocalStrategy.SORT_AGGREGATE, [candidates]
        ),
    }


def _solution_set(vertices, storage, batch_size) -> dict:
    def improves(new, old):
        return new[1] < old[1]

    def build(cls=SolutionSetIndex, **extra):
        return cls.build(vertices, (0,), PARALLELISM,
                         should_replace=improves, batch_size=batch_size,
                         columnar=True, **extra)

    # every delta record lowers its vertex's label, so all are applied
    delta = [(v, label - 1) for v, label in vertices]
    manager = SpillManager(SPILL_PROBE_BUDGET, storage)

    def apply_delta(index):
        index.apply_delta(delta, batch_size=batch_size, columnar=True)

    def apply_each(index):
        for record in delta:
            index.apply_record(record)

    def lookup_each(index):
        for vertex, _label in vertices:
            index.lookup_global(vertex)

    count = len(vertices)
    return {
        "probe.solution_set.build_rps":
            count / _median_seconds(lambda _: build()),
        "probe.solution_set.apply_delta_rps":
            count / _median_seconds(apply_delta, build),
        "probe.solution_set.apply_record_rps":
            count / _median_seconds(apply_each, build),
        "probe.solution_set.lookup_rps":
            count / _median_seconds(lookup_each, build),
        "probe.solution_set.disk_apply_delta_rps": count / _median_seconds(
            apply_delta,
            lambda: build(DiskBackedSolutionSetIndex, manager=manager),
        ),
    }


def _storage(edges, vertices, storage, batch_size) -> dict:
    frames = [edges[i:i + batch_size]
              for i in range(0, len(edges), batch_size)]

    def written(_=None):
        spill = SpillFile(storage.new_file("probe"))
        for frame in frames:
            spill.append(frame)
        spill.finish()
        return spill

    megabytes = written().bytes_written / 1e6
    metrics = MetricsCollector()
    manager = SpillManager(SPILL_PROBE_BUDGET, storage, metrics)
    join, reduce = _join_node(), _min_label_node()

    def spilled_rate(node, strategy, inputs):
        return _driver_rps(node, strategy, inputs, metrics, batch_size,
                           spill=manager)

    out = {
        "probe.storage.spill_write_mb_per_s":
            megabytes / _median_seconds(written),
        "probe.storage.spill_read_mb_per_s": megabytes / _median_seconds(
            lambda spill: spill.read_entries(), written
        ),
        "probe.storage.spilled_hash_join_rps": spilled_rate(
            join, LocalStrategy.HASH_BUILD_LEFT, [vertices, edges]
        ),
        "probe.storage.external_sort_rps": spilled_rate(
            reduce, LocalStrategy.SORT_AGGREGATE, [edges]
        ),
    }
    if not metrics.records_spilled:
        raise RuntimeError("the out-of-core probes did not spill")
    return out


def _compile_ms(graph) -> float:
    """Optimizer time for the delta-CC plan: the plan is authored by
    ``cc_incremental`` itself, on an environment of ours whose
    ``collect`` explains the plan where it would have run it."""
    env = ExecutionEnvironment(PARALLELISM, config=RuntimeConfig(
        check_invariants=False, trace=False, telemetry=False,
    ))
    times = []

    def explain_only(dataset):
        started = time.perf_counter()
        env.explain(dataset)
        times.append(time.perf_counter() - started)
        return []

    env.collect = explain_only
    for _ in range(REPEATS):
        cc.cc_incremental(env, graph, variant="cogroup", mode="superstep")
    return statistics.median(times) * 1e3


def _allreduce_program(cluster):
    started = time.perf_counter()
    for _ in range(ALLREDUCE_ROUNDS):
        cluster.allreduce_sum(1)
    return (time.perf_counter() - started) / ALLREDUCE_ROUNDS * 1e6, None


def _exchange_program(frame, batch_size):
    def program(cluster):
        frames = [frame] * cluster.size
        sent_before = cluster.bytes_sent
        started = time.perf_counter()
        for _ in range(EXCHANGE_ROUNDS):
            cluster.exchange(frames, batch_size=batch_size, columnar=True,
                             key_fields=(0,))
        elapsed = time.perf_counter() - started
        return (cluster.bytes_sent - sent_before) / 1e6 / elapsed, None
    return program


def _pool(edges, batch_size) -> dict:
    backend = PoolBackend(timeout=POOL_TIMEOUT_S)
    try:
        started = time.perf_counter()
        backend.run_program(noop_program, PARALLELISM)
        spawn_s = time.perf_counter() - started
        noop_s = []
        for _ in range(NOOP_JOBS):
            started = time.perf_counter()
            backend.run_program(noop_program, PARALLELISM)
            noop_s.append(time.perf_counter() - started)
        allreduce_us, _ = backend.run_program(_allreduce_program, PARALLELISM)
        exchange_mb_per_s, _ = backend.run_program(
            _exchange_program(edges, batch_size), PARALLELISM
        )
    finally:
        backend.close()
    return {
        "probe.pool.spawn_s": spawn_s,
        "probe.pool.noop_job_ms": statistics.median(noop_s) * 1e3,
        "probe.cluster.allreduce_us": allreduce_us,
        "probe.cluster.exchange_mb_per_s": exchange_mb_per_s,
    }


def measure(seed: int) -> dict:
    graph = rmat_with_tail(RMAT_SCALE, seed)
    edges = graph.edge_tuples()[:EDGES]
    vertices = [(v, v) for v in range(graph.num_vertices)]
    batch_size = RuntimeConfig().batch_size
    with StorageSession() as storage:
        return {
            **_dataplane(edges, vertices, batch_size),
            **_solution_set(vertices, storage, batch_size),
            **_storage(edges, vertices, storage, batch_size),
            "probe.optimizer.compile_ms": _compile_ms(graph),
            **_pool(edges, batch_size),
        }

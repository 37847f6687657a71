"""Data-plane microbenchmark: batched vs record-at-a-time framing.

Exercises the three hot primitives of the batched data plane — the
hash-partition ship, the hash-join build/probe, and the hash
aggregation — on the connected-components reference workload (an
Erdős–Rényi graph's vertex-label and edge datasets), once with the
session's configured ``RuntimeConfig.batch_size`` and once with the
degenerate ``batch_size=1`` record-at-a-time framing.  Both runs take
the *same* code path; only the chunk bound differs, so the measured gap
is purely the per-batch overhead (``RecordBatch`` construction, the
key/hash vector setup, per-chunk invariant hooks) amortized — or not —
over the records of each chunk.

The run fails (``ok=False``, nonzero exit under ``python -m
repro.bench dataplane``) if the batched ship or join throughput falls
below 2x the per-record path: that regression would mean the batch
substrate no longer pays for itself.

The JSON artifact lands in ``benchmarks/results/BENCH_dataplane.json``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.bench.reporting import (
    bench_meta,
    format_quantity,
    render_table,
    write_artifact,
)
from repro.graphs.generators import erdos_renyi
from repro.runtime import channels, drivers
from repro.runtime.config import RuntimeConfig
from repro.runtime.metrics import MetricsCollector
from repro.runtime.plan import partition_on

ARTIFACT = "BENCH_dataplane.json"

#: batched throughput below this multiple of the record-at-a-time path
#: fails the benchmark
SPEEDUP_FLOOR = 2.0


@dataclass
class DataplaneResult:
    num_vertices: int
    num_edges: int
    parallelism: int
    batch_size: int
    rounds: int
    rows: list[dict] = field(default_factory=list)
    ok: bool = True
    artifact_path: str = ""

    def report(self) -> str:
        table_rows = [
            [row["primitive"],
             format_quantity(row["records"]),
             f"{format_quantity(row['batched_rps'])}/s",
             f"{format_quantity(row['per_record_rps'])}/s",
             f"{row['speedup']:.2f}x",
             "yes" if not row["gating"] or row["speedup"] >= SPEEDUP_FLOOR
             else "NO"]
            for row in self.rows
        ]
        table = render_table(
            f"Data plane — batch_size={self.batch_size} vs 1 on CC "
            f"workload ({self.num_vertices} vertices, "
            f"{self.num_edges} edges, parallelism={self.parallelism})",
            ["primitive", "records", "batched", "per-record", "speedup",
             f">={SPEEDUP_FLOOR:.0f}x"],
            table_rows,
        )
        verdict = (
            "OK: batched ship and join clear the "
            f"{SPEEDUP_FLOOR:.0f}x throughput floor."
            if self.ok else
            "FAIL: batched throughput fell below "
            f"{SPEEDUP_FLOOR:.0f}x the record-at-a-time path."
        )
        return table + "\n\n" + verdict + f"\nArtifact: {self.artifact_path}"


class _Node:
    """Minimal driver-facing operator stub (name, keys, UDF)."""

    def __init__(self, name, key_fields, udf):
        self.name = name
        self.key_fields = key_fields
        self.udf = udf
        self.flat = False


def _partition(records, parallelism):
    parts = [[] for _ in range(parallelism)]
    for index, record in enumerate(records):
        parts[index % parallelism].append(record)
    return parts


def _time(fn, rounds):
    started = time.perf_counter()
    for _ in range(rounds):
        fn()
    return time.perf_counter() - started


def _bench_ship(edge_parts, parallelism, rounds, batch_size):
    strategy = partition_on((0,))

    def one_round():
        channels.ship(edge_parts, strategy, parallelism,
                      batch_size=batch_size)
    return _time(one_round, rounds)


def _bench_join(vertex_parts, edge_parts, rounds, batch_size):
    # CC's candidate step: label(v) joined onto the out-edges of v
    node = _Node("dataplane:join", ((0,), (0,)),
                 lambda vertex, edge: (edge[1], vertex[1]))
    metrics = MetricsCollector()

    def one_round():
        for vpart, epart in zip(vertex_parts, edge_parts):
            drivers.run_hash_join(node, [vpart, epart], metrics,
                                  build_left=True, batch_size=batch_size)
    return _time(one_round, rounds)


def _bench_aggregate(candidate_parts, rounds, batch_size):
    # CC's update step: keep the minimum candidate label per vertex
    node = _Node("dataplane:min_label", ((0,),),
                 lambda a, b: a if a[1] <= b[1] else b)
    metrics = MetricsCollector()

    def one_round():
        for part in candidate_parts:
            drivers.run_hash_aggregate(node, [part], metrics,
                                       batch_size=batch_size)
    return _time(one_round, rounds)


def run(num_vertices: int = 3_000, avg_degree: float = 8.0,
        parallelism: int = 4, rounds: int = 3,
        save_artifact: bool = True) -> DataplaneResult:
    graph = erdos_renyi(num_vertices, avg_degree, seed=11, name="dataplane")
    edges = graph.edge_tuples()
    vertices = [(v, v) for v in range(graph.num_vertices)]
    edge_parts = _partition(edges, parallelism)
    vertex_parts = _partition(vertices, parallelism)

    # the join's output feeds the aggregation, as in the CC plan
    join_node = _Node("dataplane:join", ((0,), (0,)),
                      lambda vertex, edge: (edge[1], vertex[1]))
    warm_metrics = MetricsCollector()
    candidate_parts = [
        drivers.run_hash_join(join_node, [vpart, epart], warm_metrics,
                              build_left=True)
        for vpart, epart in zip(vertex_parts, edge_parts)
    ]
    num_candidates = sum(len(part) for part in candidate_parts)

    batch_size = RuntimeConfig().batch_size
    result = DataplaneResult(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        parallelism=parallelism,
        batch_size=batch_size,
        rounds=rounds,
    )

    cases = [
        ("ship(partition_hash)", True, len(edges),
         lambda bs: _bench_ship(edge_parts, parallelism, rounds, bs)),
        ("hash join", True, len(vertices) + len(edges),
         lambda bs: _bench_join(vertex_parts, edge_parts, rounds, bs)),
        ("hash aggregate", False, num_candidates,
         lambda bs: _bench_aggregate(candidate_parts, rounds, bs)),
    ]
    for name, gating, records_per_round, bench in cases:
        bench(batch_size)  # warm both paths before timing
        bench(1)
        batched_s = bench(batch_size)
        per_record_s = bench(1)
        records = records_per_round * rounds
        speedup = per_record_s / batched_s if batched_s > 0 else float("inf")
        result.rows.append({
            "primitive": name,
            "gating": gating,
            "records": records,
            "batched_s": batched_s,
            "per_record_s": per_record_s,
            "batched_rps": records / batched_s if batched_s > 0 else 0.0,
            "per_record_rps": (
                records / per_record_s if per_record_s > 0 else 0.0
            ),
            "speedup": speedup,
        })
        if gating and speedup < SPEEDUP_FLOOR:
            result.ok = False

    if save_artifact:
        payload = {
            "experiment": "dataplane",
            "meta": bench_meta(
                backend="drivers",
                batch_size=batch_size,
                parallelism=parallelism,
                rounds=rounds,
                layout="columnar",
            ),
            "workload": "connected-components reference (erdos_renyi)",
            "num_vertices": result.num_vertices,
            "num_edges": result.num_edges,
            "parallelism": parallelism,
            "rounds": rounds,
            "batch_size": batch_size,
            "speedup_floor": SPEEDUP_FLOOR,
            "ok": result.ok,
            "note": (
                "batched and per-record runs share one code path; only "
                "the RecordBatch chunk bound differs (configured "
                "batch_size vs 1).  'gating' rows must clear the "
                "speedup floor for the run to pass."
            ),
            "rows": result.rows,
        }
        result.artifact_path = write_artifact(ARTIFACT, payload)
    return result

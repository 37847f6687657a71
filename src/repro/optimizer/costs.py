"""The optimizer's cost model.

Costs are abstract units combining network transfer (dominant, as in any
shared-nothing system), per-record CPU work, hash-table builds, and
sorting.  Weights are configurable per environment so benchmarks can
study the optimizer's sensitivity; the defaults make network roughly 4×
as expensive as touching a record locally, which suffices to reproduce
the broadcast-vs-repartition crossover of Figure 4.

Inside an iteration, costs on the dynamic data path are weighted by the
expected number of supersteps, while constant-path costs (cached after
the first superstep, Section 4.3) are paid once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.runtime.plan import ShipKind


@dataclass(frozen=True)
class CostWeights:
    """Relative strategy costs.

    Like the Nephele/PACT optimizer this model is *network-dominated*:
    shipping a record across partitions costs 1.0 while touching it
    locally costs cents.  The CPU terms exist as tie-breakers — they
    decide build sides and hash-vs-sort without ever outvoting a
    difference in shipped volume, mirroring the original system's
    network/disk-only cost model.
    """

    network: float = 1.0
    cpu: float = 0.01
    hash_build: float = 0.02
    sort: float = 0.01
    #: supersteps assumed when weighting dynamic-path costs; the plan with
    #: expensive work on the constant path wins under this multiplier
    expected_iterations: float = 10.0
    #: memory budget: a side larger than this many records cannot be
    #: replicated to every partition (a 1.7B-edge matrix does not fit in
    #: one node's heap, whatever the network cost says)
    broadcast_limit: float = 50_000.0
    #: data-plane framing: every record a channel moves pays a small
    #: handling cost, and every :class:`~repro.common.batch.RecordBatch`
    #: chunk pays a fixed framing cost that amortizes over
    #: ``batch_size`` records — large at ``batch_size=1``
    #: (record-at-a-time, one chunk per record), small at the default
    #: 1024.  The optimizer calibrates ``batch_size`` from the session's
    #: :class:`~repro.runtime.config.RuntimeConfig` unless explicit
    #: weights are supplied.
    per_record_overhead: float = 0.00025
    per_batch_overhead: float = 0.65
    batch_size: float = 1024.0


DEFAULT_WEIGHTS = CostWeights()


def amortized_overhead(weights: CostWeights) -> float:
    """Effective per-record data-plane overhead under ``weights``: the
    record's own handling plus its share of one chunk's framing."""
    return (
        weights.per_record_overhead
        + weights.per_batch_overhead / max(1.0, weights.batch_size)
    )


def _framed_records(kind: ShipKind, size: float, parallelism: int) -> float:
    """How many records a ship frames into batches (broadcast frames one
    copy per destination; forward never reframes)."""
    if kind is ShipKind.FORWARD:
        return 0.0
    if kind is ShipKind.BROADCAST:
        return size * parallelism
    return size  # PARTITION_HASH, GATHER


def framing_cost(kind: ShipKind, size: float, parallelism: int,
                 weights: CostWeights) -> float:
    """Amortized batch-framing cost of a ship.

    Kept linear in ``size`` (the per-batch term is spread over the
    configured batch size rather than rounded up per chunk), so the
    model stays comparable across cardinalities while still charging
    record-at-a-time plans the full per-frame price.
    """
    return _framed_records(kind, size, parallelism) * amortized_overhead(
        weights
    )


def ship_cost(kind: ShipKind, size: float, parallelism: int,
              weights: CostWeights) -> float:
    """Cost of moving ``size`` records under a shipping strategy:
    network transfer plus batch-framing overhead."""
    if kind is ShipKind.FORWARD:
        return 0.0
    framing = framing_cost(kind, size, parallelism, weights)
    if kind is ShipKind.PARTITION_HASH:
        remote = size * (parallelism - 1) / parallelism
        return weights.network * remote + framing
    if kind is ShipKind.BROADCAST:
        return weights.network * size * (parallelism - 1) + framing
    if kind is ShipKind.GATHER:
        return weights.network * size * (parallelism - 1) / parallelism + framing
    raise ValueError(f"unknown ship kind {kind}")


def forward_edge_cost(size: float, weights: CostWeights) -> float:
    """Materialization-and-reframing overhead of an *unfused* forward edge.

    A forward edge never moves records between partitions, but between
    two operators that each run their own driver it still costs work:
    the producer's output is materialized into the memo, copied by the
    forward ship, and reframed into batches by the consumer.  Chain
    fusion (:mod:`repro.optimizer.chaining`) eliminates exactly this
    overhead, so the enumerator charges it only on forward edges that
    will *not* be fused away — which is what lets plan selection prefer
    fusable shapes.
    """
    return size * amortized_overhead(weights)


def sort_cost(size: float, parallelism: int, weights: CostWeights) -> float:
    per_partition = max(1.0, size / parallelism)
    return weights.sort * size * math.log2(per_partition + 1.0)


def hash_build_cost(size: float, weights: CostWeights) -> float:
    return weights.hash_build * size


def probe_cost(size: float, weights: CostWeights) -> float:
    return weights.cpu * size


def streaming_cost(size: float, weights: CostWeights) -> float:
    return weights.cpu * size

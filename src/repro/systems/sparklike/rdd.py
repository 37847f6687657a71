"""Resilient-distributed-dataset abstraction with lazy lineage.

Pair-RDD operations (``reduce_by_key``, ``join``, ``group_by_key``,
``cogroup``, ``map_values``) follow Spark's ``(K, V)`` convention: each
record is a 2-tuple whose first element is the key (the value may itself
be a tuple).  Shuffles hash-partition on the key through the shared
channel layer, so message counts are comparable across the engines.
Narrow transformations never move data.

Unlike the dataflow engine's pipelined operators, every transformation
materializes fresh record objects — deliberately modelling the 2012
Spark behaviour whose per-iteration allocation cost the paper measures
(Figure 8's GC variance, Figure 11's simulated-incremental overhead).
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial

from repro.runtime import channels, drivers
from repro.runtime.plan import ShipKind, ShipStrategy

_PARTITION_KEY0 = ShipStrategy(ShipKind.PARTITION_HASH, (0,))


class RDD:
    """An immutable, lazily computed, partitioned collection."""

    def __init__(self, ctx, parents, compute, name="rdd",
                 partitioned_by_key=False):
        self.ctx = ctx
        self.parents = tuple(parents)
        self._compute = compute
        self.name = name
        self._cache_requested = False
        self._cached_parts = None
        #: True if this RDD is hash-partitioned on the key — co-partitioned
        #: joins and reductions then skip the shuffle, like Spark's
        #: partitioner-aware optimizations
        self.partitioned_by_key = partitioned_by_key

    # ------------------------------------------------------------------
    # evaluation

    def cache(self) -> "RDD":
        """Pin this RDD's partitions in memory after first computation."""
        self._cache_requested = True
        return self

    def unpersist(self) -> "RDD":
        self._cache_requested = False
        self._cached_parts = None
        return self

    def partitions(self) -> list[list]:
        """Compute (or fetch the cached) partitions of this RDD."""
        if self._cached_parts is not None:
            self.ctx.metrics.add_cache_hit()
            return self._cached_parts
        inputs = [parent.partitions() for parent in self.parents]
        parts = self._compute(inputs)
        if self._cache_requested:
            self._cached_parts = parts
            self.ctx.metrics.add_cache_build()
        return parts

    # actions ----------------------------------------------------------
    # (actions return *global* views: under a replicated SPMD driver
    # they are collectives every worker must reach in lockstep)

    def collect(self) -> list:
        tracer = self.ctx.metrics.tracer
        if tracer is None:
            return self.ctx.cluster.merge_global(self.partitions())
        with tracer.span("action:collect", category="action", rdd=self.name):
            return self.ctx.cluster.merge_global(self.partitions())

    def count(self) -> int:
        tracer = self.ctx.metrics.tracer
        if tracer is None:
            return self.ctx.cluster.allreduce_sum(
                sum(len(p) for p in self.partitions())
            )
        with tracer.span("action:count", category="action", rdd=self.name):
            return self.ctx.cluster.allreduce_sum(
                sum(len(p) for p in self.partitions())
            )

    def is_empty(self) -> bool:
        return self.count() == 0

    # ------------------------------------------------------------------
    # narrow transformations

    def _narrow(self, fn, name, keeps_partitioning=False):
        def compute(inputs):
            out = []
            for part in inputs[0]:
                self.ctx.metrics.add_processed(name, len(part))
                out.append(fn(part))
            return out
        return RDD(self.ctx, (self,), compute, name=name,
                   partitioned_by_key=self.partitioned_by_key
                   and keeps_partitioning)

    def map(self, fn, preserves_partitioning=False) -> "RDD":
        return self._narrow(
            partial(drivers.map_records, fn), "map",
            keeps_partitioning=preserves_partitioning,
        )

    def flat_map(self, fn, preserves_partitioning=False) -> "RDD":
        return self._narrow(
            partial(drivers.flat_map_records, fn), "flat_map",
            keeps_partitioning=preserves_partitioning,
        )

    def filter(self, fn) -> "RDD":
        return self._narrow(
            partial(drivers.filter_records, fn), "filter",
            keeps_partitioning=True,
        )

    def map_values(self, fn) -> "RDD":
        """Transform the value of ``(k, v)`` records, keeping the key."""
        return self._narrow(
            lambda part: [(k, fn(v)) for k, v in part],
            "map_values", keeps_partitioning=True,
        )

    def union(self, other: "RDD") -> "RDD":
        def compute(inputs):
            left, right = inputs
            return [l + r for l, r in zip(left, right)]
        return RDD(self.ctx, (self, other), compute, name="union")

    # ------------------------------------------------------------------
    # shuffles (wide transformations on (K, V) pairs)

    def _shuffle(self, parts, already_partitioned):
        """Key-shuffle precomputed partitions (skip when co-partitioned)."""
        if already_partitioned:
            self.ctx.metrics.add_shipped(
                local=sum(len(p) for p in parts), remote=0
            )
            return parts
        config = self.ctx.config
        return channels.ship(parts, _PARTITION_KEY0, self.ctx.parallelism,
                             self.ctx.metrics, cluster=self.ctx.cluster,
                             batch_size=config.batch_size,
                             max_frame_bytes=config.max_frame_bytes)

    def reduce_by_key(self, fn) -> "RDD":
        """Merge values of equal keys with ``fn(v1, v2)``; map-side combine."""
        already = self.partitioned_by_key

        def combine(parts, label):
            out = []
            for part in parts:
                table = {}
                for k, v in part:
                    held = table.get(k)
                    table[k] = v if held is None else fn(held, v)
                self.ctx.metrics.add_processed(label, len(part))
                out.append(list(table.items()))
            return out

        def compute(inputs):
            combined = combine(inputs[0], "reduce_by_key.combine")
            shuffled = self._shuffle(combined, already)
            return combine(shuffled, "reduce_by_key")
        return RDD(self.ctx, (self,), compute, name="reduce_by_key",
                   partitioned_by_key=True)

    def group_by_key(self) -> "RDD":
        already = self.partitioned_by_key

        def compute(inputs):
            shuffled = self._shuffle(inputs[0], already)
            out = []
            for part in shuffled:
                groups = defaultdict(list)
                for k, v in part:
                    groups[k].append(v)
                self.ctx.metrics.add_processed("group_by_key", len(part))
                out.append(list(groups.items()))
            return out
        return RDD(self.ctx, (self,), compute, name="group_by_key",
                   partitioned_by_key=True)

    def join(self, other: "RDD") -> "RDD":
        """Inner join on the key; result records are ``(k, (lv, rv))``."""
        lpartitioned = self.partitioned_by_key
        rpartitioned = other.partitioned_by_key

        def compute(inputs):
            left = self._shuffle(inputs[0], lpartitioned)
            right = self._shuffle(inputs[1], rpartitioned)
            out = []
            for lpart, rpart in zip(left, right):
                table = defaultdict(list)
                for k, v in lpart:
                    table[k].append(v)
                results = []
                for k, rv in rpart:
                    for lv in table.get(k, ()):
                        results.append((k, (lv, rv)))
                self.ctx.metrics.add_processed(
                    "join", len(lpart) + len(rpart)
                )
                out.append(results)
            return out
        return RDD(self.ctx, (self, other), compute, name="join",
                   partitioned_by_key=True)

    def cogroup(self, other: "RDD") -> "RDD":
        """Records ``(k, ([left values], [right values]))`` over the key union."""
        lpartitioned = self.partitioned_by_key
        rpartitioned = other.partitioned_by_key

        def compute(inputs):
            left = self._shuffle(inputs[0], lpartitioned)
            right = self._shuffle(inputs[1], rpartitioned)
            out = []
            for lpart, rpart in zip(left, right):
                lgroups = defaultdict(list)
                for k, v in lpart:
                    lgroups[k].append(v)
                rgroups = defaultdict(list)
                for k, v in rpart:
                    rgroups[k].append(v)
                self.ctx.metrics.add_processed(
                    "cogroup", len(lpart) + len(rpart)
                )
                out.append([
                    (k, (lgroups.get(k, []), rgroups.get(k, [])))
                    for k in lgroups.keys() | rgroups.keys()
                ])
            return out
        return RDD(self.ctx, (self, other), compute, name="cogroup",
                   partitioned_by_key=True)

    def distinct(self) -> "RDD":
        already = self.partitioned_by_key

        def compute(inputs):
            shuffled = self._shuffle(inputs[0], already)
            out = []
            for part in shuffled:
                self.ctx.metrics.add_processed("distinct", len(part))
                out.append(list(dict.fromkeys(part)))
            return out
        return RDD(self.ctx, (self,), compute, name="distinct")

    def __repr__(self):
        return f"<RDD {self.name} cached={self._cached_parts is not None}>"

"""Batch framing never changes results: drivers and channels agree at
every ``batch_size``.

The batched data plane's contract is that chunking is invisible —
``batch_size=1`` (record-at-a-time), tiny odd chunks, and
whole-partition batches must produce bitwise-identical outputs and
identical shipping counters.  Each test runs the same driver or channel
across the spectrum and compares against the unframed (``None``) run.
"""

import pytest

from repro.runtime import channels, drivers
from repro.runtime.config import RuntimeConfig
from repro.runtime.metrics import MetricsCollector
from repro.runtime.plan import BROADCAST, GATHER, partition_on

BATCH_SIZES = [1, 2, 3, 7, 64]

LEFT = [(k % 5, k) for k in range(23)]
RIGHT = [(k % 7, -k) for k in range(31)]


class _Node:
    def __init__(self, name, key_fields, udf, flat=False):
        self.name = name
        self.key_fields = key_fields
        self.udf = udf
        self.flat = flat


def _metrics():
    return MetricsCollector()


class TestDriverEquivalence:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("build_left", [True, False])
    def test_hash_join(self, batch_size, build_left):
        node = _Node("join", ((0,), (0,)), lambda a, b: (a, b))
        expected = drivers.run_hash_join(
            node, [LEFT, RIGHT], _metrics(), build_left=build_left
        )
        actual = drivers.run_hash_join(
            node, [LEFT, RIGHT], _metrics(), build_left=build_left,
            batch_size=batch_size,
        )
        assert actual == expected

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_sort_merge_join(self, batch_size):
        node = _Node("smj", ((0,), (0,)), lambda a, b: (a, b))
        expected = drivers.run_sort_merge_join(node, [LEFT, RIGHT],
                                               _metrics())
        actual = drivers.run_sort_merge_join(
            node, [LEFT, RIGHT], _metrics(), batch_size=batch_size
        )
        assert actual == expected

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_hash_and_sort_aggregate(self, batch_size):
        node = _Node("agg", ((0,),),
                     lambda a, b: (a[0], a[1] + b[1]))
        for run in (drivers.run_hash_aggregate, drivers.run_sort_aggregate):
            expected = run(node, [LEFT], _metrics())
            actual = run(node, [LEFT], _metrics(), batch_size=batch_size)
            assert actual == expected, run.__name__

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_reduce_group(self, batch_size):
        node = _Node("group", ((0,),),
                     lambda k, group: [(k, len(group))])
        expected = drivers.run_reduce_group(node, [LEFT], _metrics())
        actual = drivers.run_reduce_group(node, [LEFT], _metrics(),
                                          batch_size=batch_size)
        assert actual == expected

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("inner", [True, False])
    def test_cogroup(self, batch_size, inner):
        node = _Node("cogroup", ((0,), (0,)),
                     lambda k, ls, rs: [(k, len(ls), len(rs))])
        expected = drivers.run_cogroup(node, [LEFT, RIGHT], _metrics(),
                                       inner=inner)
        actual = drivers.run_cogroup(node, [LEFT, RIGHT], _metrics(),
                                     inner=inner, batch_size=batch_size)
        assert sorted(actual) == sorted(expected)

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_apply_combiner(self, batch_size):
        node = _Node("combine", ((0,),),
                     lambda a, b: (a[0], min(a[1], b[1])))
        parts = [LEFT[:11], LEFT[11:], []]
        expected = drivers.apply_combiner(node, parts, _metrics())
        actual = drivers.apply_combiner(node, parts, _metrics(),
                                        batch_size=batch_size)
        assert actual == expected


class TestShipEquivalence:
    @pytest.mark.parametrize("batch_size", [None] + BATCH_SIZES)
    def test_hash_ship_is_framing_invariant(self, batch_size):
        parallelism = 4
        parts = channels.round_robin(LEFT + RIGHT, parallelism)
        baseline = channels.ship(parts, partition_on((0,)), parallelism)
        metrics = _metrics()
        out = channels.ship(parts, partition_on((0,)), parallelism,
                            metrics, batch_size=batch_size)
        assert out == baseline
        assert len(out) == parallelism  # the partition-count contract
        assert metrics.records_shipped_local + \
            metrics.records_shipped_remote == len(LEFT + RIGHT)

    @pytest.mark.parametrize("strategy,factor", [
        (BROADCAST, 4), (GATHER, 1),
    ])
    def test_replicating_ships_count_chunks(self, strategy, factor):
        parallelism = 4
        parts = channels.round_robin(LEFT, parallelism)
        metrics = _metrics()
        channels.ship(parts, strategy, parallelism, metrics, batch_size=2)
        expected_chunks = sum(-(-len(p) // 2) for p in parts) * factor
        assert metrics.batches_shipped == expected_chunks

    def test_unframed_ship_counts_one_batch_per_partition(self):
        parallelism = 3
        parts = channels.round_robin(LEFT, parallelism)
        metrics = _metrics()
        channels.ship(parts, partition_on((0,)), parallelism, metrics)
        assert metrics.batches_shipped == parallelism


class TestConfigValidation:
    def test_batch_size_must_be_positive(self):
        with pytest.raises(ValueError):
            RuntimeConfig(batch_size=0)

    def test_async_poll_batch_rejects_bools_and_non_ints(self):
        with pytest.raises(TypeError):
            RuntimeConfig(async_poll_batch=True)
        with pytest.raises(TypeError):
            RuntimeConfig(batch_size="1024")

    def test_env_async_poll_batch_is_config_backed(self):
        from repro import ExecutionEnvironment
        env = ExecutionEnvironment(2)
        assert env.async_poll_batch == env.config.async_poll_batch
        original = env.config
        env.async_poll_batch = 5
        assert env.config.async_poll_batch == 5
        assert env.config is not original  # replaced, never mutated
        with pytest.raises(TypeError):
            env.async_poll_batch = True

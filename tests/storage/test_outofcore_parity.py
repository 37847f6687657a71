"""Out-of-core parity: spilled execution is bitwise identical.

Every keyed driver is run twice on the same inputs — once in-memory
(``spill=None``) and once through a :class:`SpillManager` whose budget
is tiny enough to force multi-pass spilling (budget 1 byte spills
everything and drives recursive repartitioning) — and the outputs must
match **including order**.  The same property is checked for the
disk-backed solution set and, end-to-end, for whole programs on the
simulated and pool backends with ``batch_size=1``.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dataflow.contracts import Contract
from repro.dataflow.graph import LogicalNode
from repro.runtime import drivers
from repro.runtime.metrics import MetricsCollector
from repro.storage import SpillManager, StorageSession

keys = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.booleans(),
    st.text(max_size=4),
)
records = st.lists(
    st.tuples(keys, st.integers(min_value=-9, max_value=9)), max_size=40
)
#: sort-based drivers need mutually comparable keys (a pre-existing
#: contract of the in-memory paths, not a spill restriction)
sortable_records = st.lists(
    st.tuples(
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=-9, max_value=9),
    ),
    max_size=40,
)
#: 1 byte spills on every admission check (multi-pass + recursive
#: repartitioning); 400 makes spilling data-dependent
budgets = st.sampled_from([1, 400])
batch_sizes = st.sampled_from([None, 1, 7])

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _node(contract, udf=None, key_fields=None, inputs_arity=1, flat=False):
    inputs = [
        LogicalNode(Contract.SOURCE, data=[]) for _ in range(inputs_arity)
    ]
    node = LogicalNode(contract, inputs, udf=udf, key_fields=key_fields)
    node.flat = flat
    return node


def _run_spilled(fn, budget):
    """Run ``fn(spill_manager)``; returns (result, manager stats)."""
    with StorageSession() as session:
        manager = SpillManager(budget, session, metrics=MetricsCollector())
        result = fn(manager)
        return result, manager.spill_events


class TestDriverParity:
    @SETTINGS
    @given(left=records, right=records, budget=budgets,
           batch_size=batch_sizes, build_left=st.booleans())
    def test_hash_join(self, left, right, budget, batch_size, build_left):
        node = _node(
            Contract.MATCH, udf=lambda a, b: (a[1], b[1]),
            key_fields=[(0,), (0,)], inputs_arity=2,
        )
        expected = drivers.run_hash_join(
            node, [left, right], MetricsCollector(), build_left=build_left,
            batch_size=batch_size,
        )
        got, _ = _run_spilled(
            lambda m: drivers.run_hash_join(
                node, [left, right], MetricsCollector(),
                build_left=build_left, batch_size=batch_size, spill=m,
            ),
            budget,
        )
        assert got == expected

    @SETTINGS
    @given(left=sortable_records, right=sortable_records, budget=budgets,
           batch_size=batch_sizes)
    def test_sort_merge_join(self, left, right, budget, batch_size):
        node = _node(
            Contract.MATCH, udf=lambda a, b: (a[1], b[1]),
            key_fields=[(0,), (0,)], inputs_arity=2,
        )
        expected = drivers.run_sort_merge_join(
            node, [left, right], MetricsCollector(), batch_size=batch_size
        )
        got, _ = _run_spilled(
            lambda m: drivers.run_sort_merge_join(
                node, [left, right], MetricsCollector(),
                batch_size=batch_size, spill=m,
            ),
            budget,
        )
        assert got == expected

    @SETTINGS
    @given(data=records, budget=budgets, batch_size=batch_sizes)
    def test_hash_aggregate(self, data, budget, batch_size):
        node = _node(
            Contract.REDUCE, udf=lambda a, b: (a[0], a[1] + b[1]),
            key_fields=[(0,)],
        )
        expected = drivers.run_hash_aggregate(
            node, [data], MetricsCollector(), batch_size=batch_size
        )
        got, _ = _run_spilled(
            lambda m: drivers.run_hash_aggregate(
                node, [data], MetricsCollector(),
                batch_size=batch_size, spill=m,
            ),
            budget,
        )
        assert got == expected

    @SETTINGS
    @given(data=sortable_records, budget=budgets, batch_size=batch_sizes)
    def test_sort_aggregate(self, data, budget, batch_size):
        node = _node(
            Contract.REDUCE, udf=lambda a, b: (a[0], a[1] + b[1]),
            key_fields=[(0,)],
        )
        expected = drivers.run_sort_aggregate(
            node, [data], MetricsCollector(), batch_size=batch_size
        )
        got, _ = _run_spilled(
            lambda m: drivers.run_sort_aggregate(
                node, [data], MetricsCollector(),
                batch_size=batch_size, spill=m,
            ),
            budget,
        )
        assert got == expected

    @SETTINGS
    @given(data=records, budget=budgets, batch_size=batch_sizes)
    def test_reduce_group(self, data, budget, batch_size):
        node = _node(
            Contract.REDUCE_GROUP,
            udf=lambda key, group: [(key, len(group),
                                     sum(r[1] for r in group))],
            key_fields=[(0,)],
        )
        expected = drivers.run_reduce_group(
            node, [data], MetricsCollector(), batch_size=batch_size
        )
        got, _ = _run_spilled(
            lambda m: drivers.run_reduce_group(
                node, [data], MetricsCollector(),
                batch_size=batch_size, spill=m,
            ),
            budget,
        )
        assert got == expected

    @SETTINGS
    @given(left=records, right=records, budget=budgets,
           batch_size=batch_sizes, inner=st.booleans())
    def test_cogroup(self, left, right, budget, batch_size, inner):
        node = _node(
            Contract.COGROUP,
            udf=lambda key, ls, rs: [(key, len(ls), len(rs),
                                      [r[1] for r in ls],
                                      [r[1] for r in rs])],
            key_fields=[(0,), (0,)], inputs_arity=2,
        )
        expected = drivers.run_cogroup(
            node, [left, right], MetricsCollector(), inner=inner,
            batch_size=batch_size,
        )
        got, _ = _run_spilled(
            lambda m: drivers.run_cogroup(
                node, [left, right], MetricsCollector(), inner=inner,
                batch_size=batch_size, spill=m,
            ),
            budget,
        )
        assert got == expected

    def test_budget_one_actually_spills_and_recurses(self):
        """Budget 1 must take the multi-pass path: spill events fire and
        oversized level-0 buckets re-partition recursively (records get
        respilled at deeper levels, so the spilled count exceeds the
        input size)."""
        data = [(i % 64, i) for i in range(400)]
        node = _node(
            Contract.REDUCE_GROUP,
            udf=lambda key, group: [(key, len(group))],
            key_fields=[(0,)],
        )
        expected = drivers.run_reduce_group(
            node, [data], MetricsCollector()
        )
        with StorageSession() as session:
            metrics = MetricsCollector()
            manager = SpillManager(1, session, metrics=metrics)
            out = drivers.run_reduce_group(
                node, [data], MetricsCollector(), spill=manager
            )
            assert out == expected
            assert manager.spill_events > 0
            assert manager.records_spilled > 400  # respilled while recursing
            assert metrics.records_spilled == manager.records_spilled

    def test_single_key_bucket_stops_recursing(self):
        """A pathological single-key input can never split: the bucket
        is processed in memory after one spill pass, exactly as an
        in-memory engine would be forced to."""
        data = [(7, i) for i in range(200)]
        node = _node(
            Contract.REDUCE_GROUP,
            udf=lambda key, group: [(key, len(group))],
            key_fields=[(0,)],
        )
        with StorageSession() as session:
            manager = SpillManager(1, session, metrics=MetricsCollector())
            out = drivers.run_reduce_group(
                node, [data], MetricsCollector(), spill=manager
            )
            assert out == [(7, 200)]
            assert manager.records_spilled == 200  # one pass, no recursion


class TestSolutionSetParity:
    @SETTINGS
    @given(
        initial=records,
        deltas=st.lists(records, max_size=4),
        use_comparator=st.booleans(),
        batch_size=batch_sizes,
    )
    def test_disk_backed_matches_in_memory(self, initial, deltas,
                                           use_comparator, batch_size):
        from repro.iterations.solution_set import (
            DiskBackedSolutionSetIndex,
            SolutionSetIndex,
        )

        should_replace = (
            (lambda new, old: new[1] < old[1]) if use_comparator else None
        )
        reference = SolutionSetIndex.build(
            initial, key_fields=0, parallelism=3,
            should_replace=should_replace, batch_size=batch_size,
        )
        with StorageSession() as session:
            manager = SpillManager(1, session)
            disk = DiskBackedSolutionSetIndex.build(
                initial, key_fields=0, parallelism=3,
                should_replace=should_replace, batch_size=batch_size,
                manager=manager,
            )
            for delta in deltas:
                expected_applied = reference.apply_delta(
                    delta, batch_size=batch_size
                )
                got_applied = disk.apply_delta(delta, batch_size=batch_size)
                assert got_applied == expected_applied
            assert len(disk) == len(reference)
            assert disk.as_dict() == reference.as_dict()
            assert [list(p) for p in disk.to_partitions()] \
                == reference.to_partitions()
            assert disk.records() == reference.records()
            if initial or any(deltas):
                assert disk.disk_bytes_written() > 0
            disk.close()


def _parity_program(env):
    """join -> reduce_by_key -> cogroup, exercised on every backend."""
    left = env.from_iterable(
        [(i % 13, i) for i in range(180)], name="left"
    )
    right = env.from_iterable(
        [(i % 7, -i) for i in range(140)], name="right"
    )
    joined = left.join(
        right, 0, 0, lambda a, b: (a[0], a[1] + b[1]), name="j"
    )
    totals = joined.reduce_by_key(
        0, lambda a, b: (a[0], a[1] + b[1]), name="r"
    )
    return totals.cogroup(
        right, 0, 0,
        lambda key, ls, rs: [(key, sorted(ls), len(rs))],
        name="cg",
    )


class TestBackendParity:
    """Whole programs under a tiny budget vs unbounded, both backends."""

    @pytest.fixture(scope="class")
    def reference(self):
        from repro.dataflow.environment import ExecutionEnvironment

        with ExecutionEnvironment(parallelism=3) as env:
            return env.collect(_parity_program(env))

    @pytest.mark.parametrize("backend", [None, "pool"])
    @pytest.mark.parametrize("budget", [512, 64 * 1024])
    def test_program_parity(self, reference, backend, budget):
        from repro.dataflow.environment import ExecutionEnvironment
        from repro.runtime.config import RuntimeConfig

        config = RuntimeConfig(
            check_invariants=True, batch_size=1,
            memory_budget_bytes=budget,
        )
        with ExecutionEnvironment(
            parallelism=3, config=config, backend=backend
        ) as env:
            got = env.collect(_parity_program(env))
            if backend is None and budget == 512:
                assert env.metrics.records_spilled > 0
        assert got == reference

    def test_delta_iteration_parity_under_budget(self, env_factory=None):
        """Out-of-core incremental CC equals the in-memory run exactly."""
        from repro.algorithms.connected_components import cc_incremental
        from repro.dataflow.environment import ExecutionEnvironment
        from repro.graphs.generators import erdos_renyi
        from repro.runtime.config import RuntimeConfig

        graph = erdos_renyi(80, 3.0, seed=7)
        with ExecutionEnvironment(parallelism=3) as env:
            expected = cc_incremental(env, graph)
        config = RuntimeConfig(
            check_invariants=True, batch_size=1,
            memory_budget_bytes=512,
        )
        with ExecutionEnvironment(parallelism=3, config=config) as env:
            got = cc_incremental(env, graph)
        assert got == expected

    @pytest.mark.parametrize("backend", ["simulated", "pool"])
    @pytest.mark.parametrize("mode", ["superstep", "microstep"])
    def test_solution_set_log_writes_are_counted_as_spills(self, backend,
                                                           mode):
        """The disk-backed solution set's log frames land in
        ``records_spilled`` / ``bytes_spilled``; results, the logical
        counters and the invariant audit are those of the in-memory run."""
        from repro.algorithms.connected_components import cc_incremental
        from repro.dataflow.environment import ExecutionEnvironment
        from repro.graphs.generators import erdos_renyi
        from repro.runtime.config import RuntimeConfig
        from repro.storage.format import HEADER_SIZE

        graph = erdos_renyi(400, 3.0, seed=5)
        runs = []
        for budget in (None, 4096):
            config = RuntimeConfig(check_invariants=True,
                                   memory_budget_bytes=budget)
            with ExecutionEnvironment(2, backend=backend,
                                      config=config) as env:
                result = cc_incremental(env, graph, variant="match",
                                        mode=mode)
                env.metrics.verify_invariants()
                if budget is not None:
                    logs = [
                        os.path.join(root, name)
                        for root, _dirs, names in os.walk(
                            env.storage_session.path)
                        for name in names if name.startswith("solution-")
                    ]
                    assert logs
                    log_frame_bytes = sum(
                        os.path.getsize(path) - HEADER_SIZE for path in logs
                    )
                runs.append((result, env.metrics))
        (expected, reference), (got, budgeted) = runs
        assert got == expected
        assert budgeted.logical() == reference.logical()
        assert reference.records_spilled == 0
        assert budgeted.records_spilled > 0
        # nothing else spills in this workload: every spilled byte is a
        # solution-set log frame
        assert budgeted.bytes_spilled == log_frame_bytes

    def test_env_budget_from_environment_variable(self, monkeypatch):
        from repro.dataflow.environment import ExecutionEnvironment
        from repro.runtime.config import RuntimeConfig

        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "2048")
        config = RuntimeConfig()
        assert config.memory_budget_bytes == 2048
        with ExecutionEnvironment(parallelism=2, config=config) as env:
            data = env.from_iterable([(i % 5, i) for i in range(60)])
            out = env.collect(
                data.reduce_by_key(0, lambda a, b: (a[0], a[1] + b[1]))
            )
            assert env.storage_session is not None
        assert sorted(out) == sorted(
            (k, sum(i for i in range(60) if i % 5 == k)) for k in range(5)
        )

"""Hypothesis parity: the vectorized kernels are bitwise-invisible.

For random record schemas mixing fixed-width (int, float) and object
(str, bool, nested-tuple) columns, every keyed driver, fused pipelines,
and the delta-iteration solution set must produce identical results,
identical logical counters, and identical span-counter totals whether
numpy is present or stubbed out (:func:`tests.conftest.numpy_stubbed`,
which forces every row loop), at the default ``batch_size`` and at the
degenerate ``batch_size=1`` — on the in-process simulator and on real
pooled workers.  The vectorized kernels are *fast paths*, never
semantics: any divergence here means a kernel reordered, dropped, or
retyped a record.
"""

import contextlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import ExecutionEnvironment
from repro.algorithms import connected_components as cc
from repro.bench.audit import _comparable_counters
from repro.graphs import erdos_renyi
from repro.observability import LOGICAL_SPAN_COUNTERS
from repro.runtime import drivers
from repro.runtime.config import RuntimeConfig
from repro.runtime.metrics import MetricsCollector
from tests.conftest import numpy_stubbed

# value columns: the draws deliberately mix types within one column so
# some examples columnarize fully, some demote to object columns, and
# some (negative, huge, or non-int keys) defeat the int64 fast path
mixed_values = st.one_of(
    st.integers(min_value=-(1 << 66), max_value=1 << 66),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.booleans(),
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
)
# small key range: multi-match joins and multi-record groups are common
keys = st.integers(min_value=-6, max_value=6)
keyed_records = st.lists(st.tuples(keys, mixed_values), max_size=40)

#: (batch_size, numpy stubbed) settings compared against the stubbed
#: run at the default batch size, the row-kernel reference
LAYOUTS = [(1024, False), (1, False), (1, True)]


def _layout(stubbed):
    return numpy_stubbed() if stubbed else contextlib.nullcontext()


class _Node:
    def __init__(self, name, key_fields, udf, flat=False):
        self.name = name
        self.key_fields = key_fields
        self.udf = udf
        self.flat = flat


def _run(driver, node, inputs, batch_size, stubbed):
    metrics = MetricsCollector()
    kwargs = {"batch_size": batch_size}
    if driver is drivers.run_hash_join:
        kwargs["build_left"] = True
    with _layout(stubbed):
        result = driver(node, [list(part) for part in inputs], metrics,
                        **kwargs)
    return result, _comparable_counters(metrics)


JOIN = _Node("parity:join", ((0,), (0,)),
             lambda a, b: (a[0], a[1], b[1]))
AGG = _Node("parity:agg", ((0,),),
            lambda a, b: a if repr(a) <= repr(b) else b)


@pytest.mark.parametrize("driver", [
    drivers.run_hash_join,
    drivers.run_sort_merge_join,
])
@given(left=keyed_records, right=keyed_records)
@settings(max_examples=60, deadline=None)
# int build keys probed by a mix of chunks: at batch_size=1 the int
# chunks take the vectorized kernel and the float / bool ones the dict
@example(left=[(1, "a"), (2, "b"), (2, "c")],
         right=[(2, 0), (2.0, 1), (1, 2), (True, 3), (5, 4), (1, 5)])
def test_join_drivers_are_layout_invariant(driver, left, right):
    node = JOIN
    expect, expect_counters = _run(driver, node, [left, right], 1024, True)
    for batch_size, stubbed in LAYOUTS:
        result, counters = _run(driver, node, [left, right],
                                batch_size, stubbed)
        assert result == expect
        assert counters == expect_counters


@pytest.mark.parametrize("driver", [
    drivers.run_hash_aggregate,
    drivers.run_sort_aggregate,
])
@given(records=keyed_records)
@settings(max_examples=60, deadline=None)
def test_aggregate_drivers_are_layout_invariant(driver, records):
    node = AGG
    expect, expect_counters = _run(driver, node, [records], 1024, True)
    for batch_size, stubbed in LAYOUTS:
        result, counters = _run(driver, node, [records],
                                batch_size, stubbed)
        assert result == expect
        assert counters == expect_counters


# ----------------------------------------------------------------------
# whole pipelines: fused chains + ship + join + aggregate


def _pipeline_env(batch_size, backend=None, parallelism=3):
    return ExecutionEnvironment(
        parallelism=parallelism, backend=backend,
        config=RuntimeConfig(batch_size=batch_size, trace=True),
    )


def _run_pipeline(env, left, right):
    ds = env.from_iterable(left).map(lambda r: (r[0], r[1]))
    other = env.from_iterable(right).filter(lambda r: r[0] % 5 != 3)
    joined = ds.join(other, (0,), (0,), lambda a, b: (a[0], a[1], b[1]))
    reduced = joined.reduce_by_key(
        0, lambda a, b: a if repr(a) <= repr(b) else b
    )
    result = sorted(env.collect(reduced), key=repr)
    return result, env


def _span_totals(env):
    return {
        counter: sum(
            root.counters.get(counter, 0) for root in env.tracer.roots
        )
        for counter in LOGICAL_SPAN_COUNTERS
    }


@given(left=keyed_records, right=keyed_records)
@settings(max_examples=25, deadline=None)
@example(left=[(i % 7, float(i)) for i in range(30)],
         right=[(i % 5, "v%d" % i) for i in range(20)])
def test_pipelines_are_layout_invariant_simulated(left, right):
    with numpy_stubbed():
        expect, row_env = _run_pipeline(_pipeline_env(1024), left, right)
    for batch_size, stubbed in LAYOUTS:
        with _layout(stubbed):
            result, env = _run_pipeline(
                _pipeline_env(batch_size), left, right
            )
        assert result == expect
        assert _comparable_counters(env.metrics) == \
            _comparable_counters(row_env.metrics)
        assert _span_totals(env) == _span_totals(row_env)


def test_pipelines_are_layout_invariant_on_pool_workers():
    left = [(i % 11 - 5, v) for i, v in enumerate(
        [1, 2.5, "x", True, (1, 2)] * 12
    )]
    right = [(i % 7 - 3, i * 1.5) for i in range(40)]
    expect, sim_env = _run_pipeline(_pipeline_env(1024), left, right)
    for stubbed in (False, True):
        # the pool forks inside the block, so its workers share the stub
        with _layout(stubbed):
            result, env = _run_pipeline(
                _pipeline_env(1024, backend="pool"), left, right
            )
        assert result == expect
        assert _comparable_counters(env.metrics) == \
            _comparable_counters(sim_env.metrics)
        assert _span_totals(env) == _span_totals(sim_env)


# ----------------------------------------------------------------------
# the solution set: delta iterations under every layout


@given(seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=10, deadline=None)
def test_solution_set_is_layout_invariant(seed):
    graph = erdos_renyi(40, 2.0, seed=seed)
    with numpy_stubbed():
        expect_env = ExecutionEnvironment(
            3, config=RuntimeConfig(batch_size=1024)
        )
        expect = cc.cc_incremental(expect_env, graph, variant="match")
    for batch_size, stubbed in LAYOUTS:
        with _layout(stubbed):
            env = ExecutionEnvironment(
                3, config=RuntimeConfig(batch_size=batch_size)
            )
            assert cc.cc_incremental(env, graph, variant="match") == expect
        assert _comparable_counters(env.metrics) == \
            _comparable_counters(expect_env.metrics)


def test_solution_set_is_layout_invariant_on_pool_workers():
    graph = erdos_renyi(60, 2.5, seed=23)
    sim_env = ExecutionEnvironment(2)
    expect = cc.cc_incremental(sim_env, graph, variant="match")
    for stubbed in (False, True):
        with _layout(stubbed):
            env = ExecutionEnvironment(2, backend="pool")
            assert cc.cc_incremental(env, graph, variant="match") == expect
        assert _comparable_counters(env.metrics) == \
            _comparable_counters(sim_env.metrics)

"""Property tests: fused execution is observationally identical.

For randomly generated chainable pipelines (maps, filters, flat_maps,
union taps, optional combinable reduce tail) and random batch sizes —
including the batch_size=1 degenerate case — running the fused chains
must produce the same records, the same logical counters, and the same
top-level span counter totals as the per-operator reference
(:func:`tests.conftest.unfused`), on both execution backends.
"""

import contextlib

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import ExecutionEnvironment
from repro.observability import LOGICAL_SPAN_COUNTERS
from repro.runtime.config import RuntimeConfig
from tests.conftest import unfused


def _op_strategy():
    return st.one_of(
        st.tuples(st.just("map"), st.integers(1, 9)),
        st.tuples(st.just("filter"), st.integers(2, 5)),
        st.tuples(st.just("flat_map"), st.integers(1, 2)),
        st.tuples(st.just("union"), st.integers(1, 20)),
    )


def _pipeline_strategy(max_records, max_ops):
    return st.tuples(
        st.integers(10, max_records),
        st.lists(_op_strategy(), min_size=1, max_size=max_ops),
        st.booleans(),
        st.sampled_from([1, 3, 1024]),
    )


def _apply(env, ds, spec, tap_seed):
    kind = spec[0]
    if kind == "map":
        k = spec[1]
        return ds.map(lambda r, k=k: (r[0] + k, r[1]))
    if kind == "filter":
        m = spec[1]
        return ds.filter(lambda r, m=m: r[0] % m != 0)
    if kind == "flat_map":
        copies = spec[1] + 1
        return ds.flat_map(lambda r, c=copies: [r] * c)
    assert kind == "union"
    n = spec[1]
    tap = env.from_iterable(
        [(1000 + tap_seed * 37 + j, j % 3) for j in range(n)]
    )
    return ds.union(tap.map(lambda r: (r[0], r[1] + 1)))


def _build(env, case):
    records, ops, reduce_tail, _batch = case
    ds = env.from_iterable([(i, i % 7) for i in range(records)])
    for tap_seed, spec in enumerate(ops):
        ds = _apply(env, ds, spec, tap_seed)
    if reduce_tail:
        # sum is associative and commutative, so the grouped value is
        # independent of partitioning and combine order
        ds = ds.reduce_by_key(0, lambda a, b: (a[0], a[1] + b[1]))
    return ds


def _execute(fused, case, backend=None, parallelism=3, trace=True):
    env = ExecutionEnvironment(
        parallelism=parallelism, backend=backend,
        config=RuntimeConfig(batch_size=case[3], trace=trace),
    )
    with contextlib.nullcontext() if fused else unfused():
        result = sorted(env.collect(_build(env, case)))
    return result, env


def _span_totals(env):
    return {
        counter: sum(
            root.counters.get(counter, 0) for root in env.tracer.roots
        )
        for counter in LOGICAL_SPAN_COUNTERS
    }


@settings(max_examples=40, deadline=None)
@given(_pipeline_strategy(max_records=200, max_ops=6))
@example((30, [("map", 1), ("filter", 2), ("union", 5), ("flat_map", 1)],
          True, 1))
@example((25, [("union", 3), ("map", 2)], False, 1))
def test_fused_is_observationally_identical_simulated(case):
    fused, fused_env = _execute(True, case)
    unfused, unfused_env = _execute(False, case)
    assert fused == unfused
    assert fused_env.metrics.logical() == \
        unfused_env.metrics.logical()
    assert _span_totals(fused_env) == _span_totals(unfused_env)


@settings(max_examples=5, deadline=None)
@given(_pipeline_strategy(max_records=60, max_ops=4))
@example((20, [("map", 3), ("filter", 2), ("flat_map", 1)], True, 1))
def test_fused_is_observationally_identical_multiprocess(case):
    fused, fused_env = _execute(
        True, case, backend="multiprocess", parallelism=2
    )
    unfused, unfused_env = _execute(
        False, case, backend="multiprocess", parallelism=2
    )
    assert fused == unfused
    assert fused_env.metrics.logical() == \
        unfused_env.metrics.logical()
    assert _span_totals(fused_env) == _span_totals(unfused_env)
    # and the fused multiprocess run matches the simulated backend too
    simulated, simulated_env = _execute(True, case, parallelism=2)
    assert fused == simulated
    assert fused_env.metrics.logical() == \
        simulated_env.metrics.logical()

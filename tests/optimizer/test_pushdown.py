"""Filter pushdown: legality fences and end-to-end effect.

``plan_pushdown`` may relocate a filter below a match's ship only when
the move is provably safe (deterministic predicate, declared read
fields, exactly one identity-forwarding side, the filter is the match's
sole consumer).  When it fires, results are bitwise identical and
strictly fewer records are shipped.
"""

import pytest

from repro import ExecutionEnvironment
from repro.dataflow.contracts import Contract
from repro.dataflow.graph import LogicalNode, LogicalPlan
from repro.optimizer.pushdown import plan_pushdown


def _is_even(rec):
    return rec[1] % 2 == 0


def _plan_for(dataset):
    sink = LogicalNode(Contract.SINK, [dataset.node], name="sink")
    return LogicalPlan([sink])


def _join(env, forward_left=True, forward_right=False):
    left = env.from_iterable([(i, i % 10) for i in range(40)], name="L")
    right = env.from_iterable([(i % 8, i) for i in range(24)], name="R")
    j = left.join(right, 0, 0, lambda l, r: (l[0], l[1], r[1]), name="j")
    if forward_left:
        j.with_forwarded_fields({0: 0, 1: 1}, input_index=0)
    if forward_right:
        j.with_forwarded_fields({0: 0, 1: 1}, input_index=1)
    return j


# ----------------------------------------------------------------------
# legality fences (pure planning, no execution)

def test_pushes_onto_the_forwarding_side(env):
    j = _join(env)
    f = j.filter(_is_even, fields=(1,), name="f")
    pushed = plan_pushdown(_plan_for(f))
    assert set(pushed) == {j.node.id}
    assert pushed[j.node.id].side == 0
    assert pushed[j.node.id].filter_node is f.node


def test_undeclared_read_fields_fence(env):
    f = _join(env).filter(_is_even, name="f")  # no fields=
    assert plan_pushdown(_plan_for(f)) == {}


def test_nondeterministic_fence(env):
    f = _join(env).filter(_is_even, fields=(1,), deterministic=False)
    assert plan_pushdown(_plan_for(f)) == {}


def test_ambiguous_both_sides_forward_fence(env):
    f = _join(env, forward_right=True).filter(_is_even, fields=(1,))
    assert plan_pushdown(_plan_for(f)) == {}


def test_unproven_fields_fence(env):
    # predicate reads field 2, which neither side identity-forwards
    f = _join(env).filter(lambda r: r[2] > 0, fields=(2,))
    assert plan_pushdown(_plan_for(f)) == {}


def test_second_consumer_fence(env):
    j = _join(env)
    f = j.filter(_is_even, fields=(1,))
    other = j.map(lambda r: r, name="other_consumer")
    sink_f = LogicalNode(Contract.SINK, [f.node], name="s1")
    sink_o = LogicalNode(Contract.SINK, [other.node], name="s2")
    assert plan_pushdown(LogicalPlan([sink_f, sink_o])) == {}


def test_filter_not_on_match_fence(env):
    src = env.from_iterable([(i, i) for i in range(10)], name="src")
    agg = src.sum_by_key(0, 1)
    f = agg.filter(_is_even, fields=(1,))
    assert plan_pushdown(_plan_for(f)) == {}


# ----------------------------------------------------------------------
# end-to-end: same answer, less shipping

def _run_pipeline(declare_fields):
    env = ExecutionEnvironment(parallelism=4)
    left = env.from_iterable(
        [(i, i % 10) for i in range(400)], name="L"
    )
    right = env.from_iterable([(i % 40, i) for i in range(200)], name="R")
    j = left.join(right, 0, 0,
                  lambda l, r: (l[0], l[1], r[1]), name="j")
    j.with_forwarded_fields({0: 0, 1: 1}, input_index=0)
    fields = (1,) if declare_fields else None
    f = j.filter(lambda rec: rec[1] < 5, fields=fields, name="sel")
    result = f.collect()
    shipped = (env.metrics.records_shipped_local
               + env.metrics.records_shipped_remote)
    pushed = dict(env.last_plan.pushed_filters)
    env.close()
    return result, shipped, pushed


def test_pushdown_preserves_results_and_reduces_shipping():
    base, shipped_base, pushed_base = _run_pipeline(declare_fields=False)
    opt, shipped_opt, pushed_opt = _run_pipeline(declare_fields=True)
    assert pushed_base == {}
    assert len(pushed_opt) == 1
    assert sorted(opt) == sorted(base)
    assert shipped_opt < shipped_base


def test_naive_plans_skip_pushdown(env_naive):
    left = env_naive.from_iterable([(i, i % 4) for i in range(20)], name="L")
    right = env_naive.from_iterable([(i, i) for i in range(20)], name="R")
    j = left.join(right, 0, 0, lambda l, r: (l[0], l[1], r[1]), name="j")
    j.with_forwarded_fields({0: 0, 1: 1}, input_index=0)
    f = j.filter(_is_even, fields=(1,))
    f.collect()
    assert env_naive.last_plan.pushed_filters == {}


def test_pushdown_inside_iteration_body_is_skipped(env):
    # only the outer region is rewritten
    verts = env.from_iterable([(i, i) for i in range(12)], name="v")
    edges = env.from_iterable(
        [(i, (i + 1) % 12) for i in range(12)], name="e"
    )
    it = env.iterate_delta(verts, verts, 0, 5, name="cc")
    j = it.workset.join(edges, 0, 0,
                        lambda w, e_: (e_[1], w[1]), name="expand")
    j.with_forwarded_fields({1: 1}, input_index=0)
    f = j.filter(lambda r: r[1] >= 0, fields=(1,), name="body_filter")
    m = f.min_by_key(0, 1)
    upd = m.cogroup(
        it.solution_set, 0, 0,
        lambda k, cand, cur: [c for c in cand if not cur or c[1] < cur[0][1]],
        inner=False, name="upd",
    )
    it.close(upd, upd).collect()
    assert env.last_plan.pushed_filters == {}

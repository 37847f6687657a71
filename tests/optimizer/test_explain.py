"""``DataSet.explain()`` and the DOT renderer surface optimizer-v2 state."""

import pytest

from repro import ExecutionEnvironment
from repro.optimizer.visualize import plan_to_dot


def test_explain_shows_strategies_and_estimates(env):
    left = env.from_iterable([(i, i % 5) for i in range(50)], name="L")
    right = env.from_iterable([(i, i) for i in range(10)], name="R")
    j = left.join(right, 0, 0, lambda l, r: (l[0], l[1], r[1]), name="j")
    report = j.explain()
    assert "j (match)" in report
    assert "est=" in report
    assert "in0 ← L" in report and "in1 ← R" in report
    # compiling for explain() must not execute anything
    assert env.metrics.records_processed == {}


def test_explain_marks_pushdown(env):
    left = env.from_iterable([(i, i % 5) for i in range(50)], name="L")
    right = env.from_iterable([(i, i) for i in range(10)], name="R")
    j = left.join(right, 0, 0, lambda l, r: (l[0], l[1], r[1]), name="j")
    j.with_forwarded_fields({0: 0, 1: 1}, input_index=0)
    f = j.filter(lambda r: r[1] == 0, fields=(1,), name="sel")
    report = f.explain()
    assert "[pushdown:sel]" in report


def test_explain_shows_iteration_mode(env):
    edges = env.from_iterable(
        [(i, (i + 1) % 20) for i in range(20)], name="edges"
    )
    verts = env.from_iterable([(i, i) for i in range(20)], name="verts")
    it = env.iterate_delta(verts, verts, 0, 10, name="cc")
    j = it.workset.join(edges, 0, 0,
                        lambda w, e: (e[1], w[1]), name="expand")
    m = j.min_by_key(0, 1)
    upd = m.cogroup(
        it.solution_set, 0, 0,
        lambda k, cand, cur: [c for c in cand if not cur or c[1] < cur[0][1]],
        inner=False, name="upd",
    )
    report = it.close(upd, upd).explain()
    assert "cc body (mode=superstep):" in report


def test_explain_shows_observed_cardinalities_after_a_run(env):
    src = env.from_iterable([(i, i % 10) for i in range(100)], name="src")
    kept = src.filter(lambda r: r[1] < 3, name="keep3")
    probe = kept.map(lambda r: r, name="probe")
    probe.collect()
    report = probe.explain()
    assert "obs=100" in report  # src measured by its filter consumer
    assert "obs=30" in report   # keep3 measured by its map consumer


def test_plan_to_dot_renders_annotated_plan(env):
    left = env.from_iterable([(i, i % 5) for i in range(50)], name="L")
    right = env.from_iterable([(i, i) for i in range(10)], name="R")
    j = left.join(right, 0, 0, lambda l, r: (l[0], l[1], r[1]), name="j")
    j.collect()
    plan = env.last_plan
    dot = plan_to_dot(plan.logical_plan, plan, env)
    assert dot.startswith("digraph plan {") and dot.endswith("}")
    assert "est=" in dot

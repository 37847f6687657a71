"""CardinalityObserver: measured stats feed the next compilation.

The observer runs driver-side at ingest time only, derives operator
output sizes / filter selectivities / distinct-key counts from the
logical counters, and a warm environment's next plan prefers those
measurements over the textbook defaults.
"""

import pytest

from repro.optimizer.statistics import Statistics


def _pipeline(env):
    # every operator whose cardinality we want observed feeds exactly
    # one record-wise consumer (the observer's attribution rule)
    src = env.from_iterable([(i, i % 10) for i in range(100)], name="src")
    kept = src.filter(lambda r: r[1] < 3, name="keep3")
    probe = kept.map(lambda r: r, name="probe")
    agg = probe.sum_by_key(0, 1, name="agg")
    return agg.map(lambda r: r, name="out")


def test_observer_measures_sizes_and_selectivity(env):
    _pipeline(env).collect()
    obs = env.observer
    assert obs.runs == 1
    # src's sole consumer is the filter: processed(keep3) == |src|
    assert obs.sizes["src"] == 100.0
    # the filter keeps 30 of 100 records (its consumer "probe" saw 30)
    assert obs.sizes["keep3"] == 30.0
    assert obs.selectivities["keep3"] == pytest.approx(0.3)
    # the aggregation's output size is its input's distinct-key count
    assert obs.sizes["agg"] == 30.0
    assert obs.key_counts["agg"] == 30


def test_multi_consumer_counts_are_not_attributed(env):
    src = env.from_iterable([(i, i) for i in range(50)], name="fanout")
    a = src.map(lambda r: r, name="a")
    b = src.map(lambda r: r, name="b")
    a.union(b).collect()
    # two consumers: records_processed cannot be attributed to one edge
    assert "fanout" not in env.observer.sizes


def test_cross_run_delta_not_cumulative_totals(env):
    _pipeline(env).collect()
    _pipeline(env).collect()
    obs = env.observer
    assert obs.runs == 2
    # metrics accumulate across runs; the observer must difference them,
    # so the second run observes 100 again, not 200
    assert obs.sizes["src"] == 100.0
    assert obs.selectivities["keep3"] == pytest.approx(0.3)


def test_warm_environment_prefers_observed_stats(env):
    ds = _pipeline(env)
    cold = Statistics()
    assert cold.size(ds.node.inputs[0]) != 30.0  # textbook guess
    ds.collect()
    warm = Statistics(
        observed=env.observer.sizes,
        selectivities=env.observer.selectivities,
    )
    # "agg" was measured at 30 records; the warm estimator uses it
    agg_node = ds.node.inputs[0]
    assert agg_node.name == "agg"
    assert warm.size(agg_node) == 30.0


def test_iteration_bodies_are_excluded(env, small_random):
    edges = env.from_iterable(small_random.edge_tuples(), name="edges")
    n = small_random.num_vertices
    verts = env.from_iterable([(i, i) for i in range(n)], name="verts")
    it = env.iterate_delta(verts, verts, 0, 30, name="cc")
    j = it.workset.join(edges, 0, 0,
                        lambda w, e: (e[1], w[1]), name="expand")
    body_filter = j.filter(lambda r: True, fields=(0,), name="bodyf")
    m = body_filter.min_by_key(0, 1, name="minlabel")
    upd = m.cogroup(
        it.solution_set, 0, 0,
        lambda k, cand, cur: [c for c in cand if not cur or c[1] < cur[0][1]],
        inner=False, name="upd",
    )
    it.close(upd, upd).collect()
    obs = env.observer
    # body operators are summed over supersteps — never ingested as
    # static sizes
    assert "expand" not in obs.sizes
    assert "bodyf" not in obs.selectivities


def test_snapshot_is_plain_data(env):
    _pipeline(env).collect()
    snap = env.observer.snapshot()
    assert snap["runs"] == 1
    assert snap["sizes"]["keep3"] == 30.0
    assert snap["selectivities"]["keep3"] == pytest.approx(0.3)

"""Parity: adaptive mid-iteration plan switches are observationally invisible.

A switch may change only *physical* counters (bytes, batches,
``plan_switches``).  With ``RuntimeConfig.adaptive`` on vs off the run
must produce bitwise-identical results, identical logical counters
(records processed / shipped local / remote, solution accesses and
updates, supersteps, per-superstep workset and delta sizes, cache hits
and builds), and identical span-tree structure up to the ``plan_switch``
instant markers — on the simulator and on real forked workers, for both
switch directions, including switches forced mid-iteration at arbitrary
supersteps the cost model would never pick.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionEnvironment
from repro.optimizer.costs import CostWeights
from repro.runtime.config import RuntimeConfig
from repro.runtime.plan import (
    BROADCAST,
    FORWARD,
    LocalStrategy,
    ShipKind,
    partition_on,
)

#: edges per shape: a ring plus chords gives several supersteps of
#: label propagation with shrinking-then-stopping deltas
def _edges(n):
    return ([(i, (i + 1) % n) for i in range(n)]
            + [(i, (i * 7 + 3) % n) for i in range(n)])


def _build_cc(env, n, shape, force=None, trace=False):
    """Delta-iteration CC whose expand join is adaptively eligible.

    ``shape`` picks the forced baseline: ``"A"`` broadcasts the dynamic
    workset over a resident build side (switchable to hash), ``"B"``
    hash-partitions both sides (switchable to broadcast, force-only).
    """
    e = env.from_iterable(_edges(n), name="edges")
    v = env.from_iterable([(i, i) for i in range(n)], name="verts")
    it = env.iterate_delta(v, v, 0, 50, name="cc")
    ws, ss = it.workset, it.solution_set
    j = ws.join(e, 0, 0, lambda w, edge: (edge[1], w[1]), name="expand")
    if force is not None:
        j.node.force_switch_at = force
    m = j.min_by_key(0, 1, name="minlabel")
    upd = m.cogroup(
        ss, 0, 0,
        lambda k, cand, cur: [c for c in cand if not cur or c[1] < cur[0][1]],
        inner=False, name="upd",
    )
    if shape == "A":
        env.plan_overrides[j.node.id] = {
            "ship": {0: BROADCAST, 1: FORWARD},
            "local": LocalStrategy.HASH_BUILD_RIGHT,
        }
    else:
        env.plan_overrides[j.node.id] = {
            "ship": {0: partition_on((0,)), 1: partition_on((0,))},
            "local": LocalStrategy.HASH_BUILD_RIGHT,
        }
    return it.close(upd, upd)


def _logical_snapshot(env):
    m = env.metrics
    return {
        "processed": dict(m.records_processed),
        "shipped_local": m.records_shipped_local,
        "shipped_remote": m.records_shipped_remote,
        "solution_accesses": m.solution_accesses,
        "solution_updates": m.solution_updates,
        "supersteps": m.supersteps,
        "cache_hits": m.cache_hits,
        "cache_builds": m.cache_builds,
        "steps": [
            (s.superstep, s.workset_size, s.delta_size,
             s.records_processed, s.records_shipped_local,
             s.records_shipped_remote)
            for s in m.iteration_log
        ],
    }


def _strip_plan_switch(structure):
    """Span structure minus ``plan_switch`` instants (the one permitted
    structural difference between the two modes)."""
    def strip(node):
        name, category, counters, children = node
        kept = tuple(strip(c) for c in children if c[0] != "plan_switch")
        return (name, category, counters, kept)
    return tuple(strip(root) for root in structure
                 if root[0] != "plan_switch")


def _run(backend, adaptive, n, shape, force=None, trace=False):
    config = RuntimeConfig(adaptive=adaptive, trace=trace)
    env = ExecutionEnvironment(parallelism=4, backend=backend, config=config)
    try:
        result = _build_cc(env, n, shape, force=force).collect()
        snap = _logical_snapshot(env)
        switches = env.metrics.plan_switches
        structure = (
            _strip_plan_switch(env.tracer.structure()) if trace else None
        )
    finally:
        env.close()
    return result, snap, switches, structure


@pytest.mark.parametrize("backend", ["simulated", "pool"])
@pytest.mark.parametrize("shape,force", [("A", 3), ("B", 2)])
def test_forced_switch_parity(backend, shape, force):
    r_off, s_off, sw_off, _ = _run(backend, False, 50, shape)
    r_on, s_on, sw_on, _ = _run(backend, True, 50, shape, force=force)
    assert r_on == r_off          # bitwise, order included
    assert s_on == s_off          # every logical counter
    assert sw_off == 0
    assert sw_on >= 1             # physical: per-worker under SPMD


@pytest.mark.parametrize("backend", ["simulated", "multiprocess"])
def test_honest_crossover_switch_parity(backend):
    # large workset over a broadcast probe: the cost model itself fires
    # the broadcast→hash switch, no force needed
    r_off, s_off, sw_off, _ = _run(backend, False, 400, "A")
    r_on, s_on, sw_on, _ = _run(backend, True, 400, "A")
    assert sw_off == 0 and sw_on >= 1
    assert r_on == r_off
    assert s_on == s_off


def test_explicit_cost_weights_reach_spmd_workers():
    # a prohibitive hash-build price vetoes the honest switch of the
    # case above; the veto must hold inside every worker too (pool
    # workers used to re-cost with the default weights and switch)
    weights = dataclasses.replace(CostWeights(), hash_build=1e9)
    switches, shipped = {}, {}
    for backend in ("simulated", "multiprocess", "pool"):
        env = ExecutionEnvironment(
            4, backend=backend, cost_weights=weights,
            config=RuntimeConfig(adaptive=True),
        )
        try:
            _build_cc(env, 400, "A").collect()
            switches[backend] = env.metrics.plan_switches
            shipped[backend] = env.metrics.bytes_shipped
        finally:
            env.close()
    assert switches == {"simulated": 0, "multiprocess": 0, "pool": 0}
    assert shipped["multiprocess"] == shipped["pool"] > 0


def test_switch_spans_structurally_identical():
    _, _, _, st_off = _run("simulated", False, 50, "A", trace=True)
    _, _, sw, st_on = _run("simulated", True, 50, "A", force=2, trace=True)
    assert sw == 1
    assert st_on == st_off


def test_hash_baseline_never_switches_honestly():
    # without force_at_superstep the hash→broadcast direction must not
    # fire: it is never profitable under the cost model
    _, _, switches, _ = _run("simulated", True, 120, "B")
    assert switches == 0


def test_switch_is_one_way():
    # force at superstep 1: every later superstep stays switched, so
    # exactly one switch instant is recorded on the simulator
    _, _, switches, _ = _run("simulated", True, 80, "A", force=1)
    assert switches == 1


def test_adaptive_spec_recorded_in_both_modes():
    # the *plan* is mode-independent; only the executor consults the flag
    for adaptive in (False, True):
        env = ExecutionEnvironment(
            parallelism=4, config=RuntimeConfig(adaptive=adaptive)
        )
        ds = _build_cc(env, 30, "A")
        ds.collect()
        specs = list(env.last_plan.adaptive.values())
        assert len(specs) == 1
        spec = specs[0]
        assert spec.baseline_kind is ShipKind.BROADCAST
        assert spec.switch_kind is ShipKind.PARTITION_HASH
        env.close()


@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(min_value=8, max_value=60),
    force=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
    shape=st.sampled_from(["A", "B"]),
    seed=st.integers(min_value=0, max_value=5),
)
def test_random_switch_parity(n, force, shape, seed):
    """Random sizes, random (or cost-driven) switch supersteps, both
    shapes: adaptivity on/off stays bitwise and logically identical."""
    extra = [(i, (i * (seed + 3) + 1) % n) for i in range(0, n, 2)]

    def run(adaptive):
        env = ExecutionEnvironment(
            parallelism=4, config=RuntimeConfig(adaptive=adaptive)
        )
        e = env.from_iterable(_edges(n) + extra, name="edges")
        v = env.from_iterable([(i, i) for i in range(n)], name="verts")
        it = env.iterate_delta(v, v, 0, 50, name="cc")
        j = it.workset.join(e, 0, 0,
                            lambda w, edge: (edge[1], w[1]), name="expand")
        if force is not None:
            j.node.force_switch_at = force
        m = j.min_by_key(0, 1, name="minlabel")
        upd = m.cogroup(
            it.solution_set, 0, 0,
            lambda k, cand, cur: [
                c for c in cand if not cur or c[1] < cur[0][1]
            ],
            inner=False, name="upd",
        )
        if shape == "A":
            env.plan_overrides[j.node.id] = {
                "ship": {0: BROADCAST, 1: FORWARD},
                "local": LocalStrategy.HASH_BUILD_RIGHT,
            }
        else:
            env.plan_overrides[j.node.id] = {
                "ship": {0: partition_on((0,)), 1: partition_on((0,))},
                "local": LocalStrategy.HASH_BUILD_RIGHT,
            }
        result = it.close(upd, upd).collect()
        snap = _logical_snapshot(env)
        env.close()
        return result, snap

    r_off, s_off = run(False)
    r_on, s_on = run(True)
    assert r_on == r_off
    assert s_on == s_off

"""Static microstep eligibility analysis (Section 5.2)."""

import pytest

from repro import ExecutionEnvironment
from repro.common.errors import MicrostepViolation
from repro.iterations.microstep import analyze_microstep


def make_delta_iteration(env, delta_builder, forward_key=True):
    """A CC-shaped delta iteration with a configurable update operator."""
    vertices = env.from_iterable([(v, v) for v in range(4)])
    edges = env.from_iterable([(0, 1), (1, 0)])
    workset = env.from_iterable([(0, 1)])
    iteration = env.iterate_delta(vertices, workset, 0, max_iterations=5)
    delta = delta_builder(iteration)
    if forward_key:
        delta.with_forwarded_fields({0: 0})
    next_ws = delta.join(edges, 0, 0, lambda d, e: (e[1], d[1]))
    iteration._node.close(delta.node, next_ws.node)
    return iteration._node


def match_delta(iteration):
    return iteration.workset.join(
        iteration.solution_set, 0, 0,
        lambda c, s: (s[0], c[1]) if c[1] < s[1] else None,
    )


def cogroup_delta(iteration):
    return iteration.workset.cogroup(
        iteration.solution_set, 0, 0,
        lambda key, cands, stored: [(key, min(c[1] for c in cands))],
    )


class TestEligibility:
    def test_match_variant_eligible(self, env):
        node = make_delta_iteration(env, match_delta)
        report = analyze_microstep(node)
        assert report.eligible, report.reasons
        assert report.local_updates
        assert [n.contract.value for n in report.chain_to_delta] == [
            "solution_join"
        ]
        assert [n.contract.value for n in report.chain_to_workset] == ["match"]

    def test_cogroup_variant_rejected(self, env):
        node = make_delta_iteration(env, cogroup_delta)
        report = analyze_microstep(node)
        assert not report.eligible
        assert any("group-at-a-time" in r for r in report.reasons)

    def test_missing_forwarded_fields_rejected(self, env):
        node = make_delta_iteration(env, match_delta, forward_key=False)
        report = analyze_microstep(node)
        assert not report.eligible
        assert any("constant" in r for r in report.reasons)

    def test_map_after_update_needs_forwarding(self, env):
        def builder(iteration):
            joined = match_delta(iteration).with_forwarded_fields({0: 0})
            # a map that does not declare key constancy breaks locality
            return joined.map(lambda r: (r[0], r[1]))
        node = make_delta_iteration(env, builder, forward_key=False)
        assert not analyze_microstep(node).eligible

    def test_map_with_forwarding_is_eligible(self, env):
        def builder(iteration):
            joined = match_delta(iteration).with_forwarded_fields({0: 0})
            return joined.map(lambda r: (r[0], r[1])) \
                .with_forwarded_fields({0: 0})
        node = make_delta_iteration(env, builder, forward_key=False)
        report = analyze_microstep(node)
        assert report.eligible, report.reasons

    def test_filter_preserves_keys_implicitly(self, env):
        def builder(iteration):
            joined = match_delta(iteration).with_forwarded_fields({0: 0})
            return joined.filter(lambda r: True)
        node = make_delta_iteration(env, builder, forward_key=False)
        assert analyze_microstep(node).eligible

    def test_branched_dynamic_path_rejected(self, env):
        vertices = env.from_iterable([(v, v) for v in range(4)])
        workset = env.from_iterable([(0, 1)])
        iteration = env.iterate_delta(vertices, workset, 0, max_iterations=5)
        joined = match_delta(iteration).with_forwarded_fields({0: 0})
        # two dynamic consumers of the same operator: a branch
        branch_a = joined.map(lambda r: r).with_forwarded_fields({0: 0})
        branch_b = joined.map(lambda r: r).with_forwarded_fields({0: 0})
        delta = branch_a.union(branch_b)
        next_ws = delta.map(lambda r: r)
        iteration._node.close(delta.node, next_ws.node)
        report = analyze_microstep(iteration._node)
        assert not report.eligible

    def test_solution_access_on_workset_path_rejected(self, env):
        """The workset chain runs over a whole run's deltas after the
        fold, so it must not read the solution set."""
        vertices = env.from_iterable([(v, v) for v in range(4)])
        workset = env.from_iterable([(0, 1)])
        iteration = env.iterate_delta(vertices, workset, 0, max_iterations=5)
        delta = match_delta(iteration).with_forwarded_fields({0: 0})
        next_ws = delta.join(
            iteration.solution_set, 0, 0, lambda d, s: (s[0], d[1])
        )
        iteration._node.close(delta.node, next_ws.node)
        report = analyze_microstep(iteration._node)
        assert not report.eligible
        assert any("access on the workset path" in r for r in report.reasons)

    def test_second_solution_access_on_delta_path_rejected(self, env):
        def builder(iteration):
            first = iteration.workset.join(
                iteration.solution_set, 0, 0, lambda c, s: (s[0], c[1])
            ).with_forwarded_fields({0: 0})
            return first.join(
                iteration.solution_set, 0, 0,
                lambda c, s: (s[0], c[1]) if c[1] < s[1] else None,
            )
        node = make_delta_iteration(env, builder)
        report = analyze_microstep(node)
        assert not report.eligible
        assert any("second solution-set access" in r for r in report.reasons)

    def test_raise_if_ineligible(self, env):
        node = make_delta_iteration(env, cogroup_delta)
        with pytest.raises(MicrostepViolation):
            analyze_microstep(node).raise_if_ineligible()

    def test_executor_rejects_forced_microstep(self, env):
        vertices = env.from_iterable([(v, v) for v in range(4)])
        edges = env.from_iterable([(0, 1), (1, 0)])
        workset = env.from_iterable([(0, 1)])
        iteration = env.iterate_delta(vertices, workset, 0, max_iterations=5)
        delta = cogroup_delta(iteration)
        next_ws = delta.join(edges, 0, 0, lambda d, e: (e[1], d[1]))
        result = iteration.close(delta, next_ws, mode="microstep")
        with pytest.raises(MicrostepViolation):
            result.collect()

    def test_auto_mode_resolution(self, env):
        from repro.optimizer.naive import resolve_iteration_mode
        eligible = make_delta_iteration(env, match_delta)
        assert resolve_iteration_mode(eligible) == "microstep"
        ineligible = make_delta_iteration(
            ExecutionEnvironment(4), cogroup_delta
        )
        assert resolve_iteration_mode(ineligible) == "superstep"

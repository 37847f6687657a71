"""Chain-fusion planner rules: what fuses, what breaks a chain."""

import pytest

from repro import ExecutionEnvironment
from repro.algorithms import connected_components as cc
from repro.dataflow.contracts import Contract
from repro.dataflow.graph import LogicalNode, LogicalPlan
from repro.optimizer.chaining import plan_chains
from repro.runtime.plan import OperatorAnnotation, partition_on
from tests.conftest import unfused


def compile_for(env, dataset):
    sink = LogicalNode(Contract.SINK, [dataset.node], name="collect")
    return env._compile(LogicalPlan([sink]))


def five_op_pipeline(env):
    ds = env.from_iterable([(i, i % 5) for i in range(40)])
    return (
        ds.map(lambda r: (r[0] + 1, r[1]))
        .filter(lambda r: r[1] != 3)
        .map(lambda r: (r[0], r[1] * 2))
        .flat_map(lambda r: [r])
        .filter(lambda r: r[0] % 2 == 0)
    )


class TestChainFormation:
    def test_five_op_pipeline_fuses_into_one_chain(self, env):
        ds = five_op_pipeline(env)
        plan = compile_for(env, ds)
        assert len(plan.chains) == 1
        chain = plan.chains[ds.node.id]
        assert chain.describe() == "chain[map→filter→map→flat_map→filter]"
        assert len(chain.nodes) == 5
        assert chain.combine_node is None
        # every member but the tail loses its identity
        assert plan.fused_ids == frozenset(
            n.id for n in chain.nodes[:-1]
        )
        assert chain.tail.id == ds.node.id

    def test_describe_lists_chain_members(self, env):
        ds = five_op_pipeline(env)
        plan = compile_for(env, ds)
        text = plan.describe()
        assert "chain[map→filter→map→flat_map→filter]" in text

    def test_naive_planner_also_gets_chains(self, env_naive):
        plan = compile_for(env_naive, five_op_pipeline(env_naive))
        assert len(plan.chains) == 1

    def test_union_fuses_lowest_slot_as_spine(self, env):
        base = env.from_iterable([(i,) for i in range(20)])
        left = base.map(lambda r: (r[0] + 1,))
        right = env.from_iterable([(100 + i,) for i in range(10)]).map(
            lambda r: (r[0] * 2,)
        )
        merged = left.union(right).map(lambda r: (r[0],))
        plan = compile_for(env, merged)
        chain = plan.chains[merged.node.id]
        contracts = [n.contract for n in chain.nodes]
        assert contracts == [Contract.MAP, Contract.UNION, Contract.MAP]
        assert chain.nodes[0].id == left.node.id
        # the right side stays a normally shipped tap
        assert right.node.id not in plan.fused_ids

    def test_single_op_combine_chain(self, env_naive):
        ds = env_naive.from_iterable([(i % 4, i) for i in range(30)])
        mapped = ds.map(lambda r: (r[0], r[1] + 1))
        total = mapped.reduce_by_key(0, lambda a, b: (a[0], a[1] + b[1]))
        plan = compile_for(env_naive, total)
        chain = plan.chains[total.node.id]
        assert chain.nodes == (mapped.node,)
        assert chain.combine_node is total.node
        assert chain.describe() == "chain[map→combine]"
        assert mapped.node.id in plan.fused_ids
        # the reduce itself keeps its identity (it still ships/aggregates)
        assert total.node.id not in plan.fused_ids


class TestChainBreakers:
    def test_branch_point_ends_chain(self, env):
        base = env.from_iterable([(i,) for i in range(20)])
        shared = base.map(lambda r: (r[0] + 1,))
        left = shared.filter(lambda r: r[0] % 2 == 0)
        right = shared.map(lambda r: (r[0] * 2,))
        merged = left.union(right)
        plan = compile_for(env, merged)
        # shared has two consumers: no chain may fuse it away
        assert shared.node.id not in plan.fused_ids
        for chain in plan.chains.values():
            assert shared.node.id != chain.nodes[0].id or (
                len(chain.nodes) == 1
            )

    def test_dam_breaks_chain(self, env):
        ds = env.from_iterable([(i,) for i in range(20)])
        tail = ds.map(lambda r: (r[0] + 1,)).filter(lambda r: r[0] > 2)
        plan = compile_for(env, tail)
        assert tail.node.id in plan.chains
        plan.annotation(tail.node).dams.add(0)
        plan_chains(plan)
        assert tail.node.id not in plan.chains

    def test_non_forward_ship_breaks_chain(self, env):
        ds = env.from_iterable([(i, i) for i in range(20)])
        tail = ds.map(lambda r: (r[0], r[1] + 1)).filter(
            lambda r: r[1] > 0
        )
        env.plan_overrides[tail.node.id] = {"ship": {0: partition_on((0,))}}
        plan = compile_for(env, tail)
        assert tail.node.id not in plan.chains
        assert plan.fused_ids == frozenset()

    def test_chain_never_straddles_constant_dynamic_boundary(self, env):
        """A constant-path map feeding a dynamic union must keep its own
        memo entry so the Section 4.3 edge cache still works."""
        base = env.from_iterable([(i,) for i in range(12)])
        constant = env.from_iterable([(100 + i,) for i in range(6)])
        iteration = env.iterate_bulk(base, max_iterations=3)
        constant_mapped = constant.map(lambda r: (r[0] + 1,))
        body = (
            iteration.partial_solution.map(lambda r: (r[0],))
            .union(constant_mapped)
            .map(lambda r: (r[0],))
        )
        result = iteration.close(body)
        plan = compile_for(env, result)
        assert constant_mapped.node.id not in plan.fused_ids
        for chain in plan.chains.values():
            assert constant_mapped.node.id not in {
                n.id for n in chain.nodes
            }

    def test_iteration_roots_keep_their_identity(self, env):
        base = env.from_iterable([(i,) for i in range(12)])
        iteration = env.iterate_bulk(base, max_iterations=2)
        body = iteration.partial_solution.map(lambda r: (r[0] + 1,)).map(
            lambda r: (r[0],)
        )
        result = iteration.close(body)
        plan = compile_for(env, result)
        # the body output is read by the executor every superstep
        assert body.node.id not in plan.fused_ids
        chain = plan.chains.get(body.node.id)
        assert chain is not None and chain.tail.id == body.node.id

    def test_microstep_bodies_are_never_fused(self, sample9):
        env = ExecutionEnvironment(parallelism=4)
        cc.cc_incremental(env, sample9, variant="match", mode="microstep")
        plan = env.last_plan
        body_ids = {
            n.id
            for node in plan.logical_plan.nodes()
            if node.contract is Contract.DELTA_ITERATION
            for n in __import__(
                "repro.dataflow.graph", fromlist=["iteration_body_nodes"]
            ).iteration_body_nodes(node)
        }
        assert not (plan.fused_ids & body_ids)
        for chain in plan.chains.values():
            assert not ({n.id for n in chain.nodes} & body_ids)


class TestCostModel:
    def test_unfused_forward_edges_are_charged(self, env):
        """A forward edge out of a branch point cannot fuse, so the
        enumerator charges its materialization overhead; a fusable edge
        of the same shape is free."""
        from repro.dataflow.graph import topological_order
        from repro.optimizer.costs import DEFAULT_WEIGHTS
        from repro.optimizer.enumerator import Enumerator
        from repro.optimizer.statistics import Statistics

        base = env.from_iterable([(i,) for i in range(20)])
        shared = base.map(lambda r: (r[0] + 1,))
        left = shared.filter(lambda r: r[0] % 2 == 0)
        tail = left.map(lambda r: (r[0] * 3,))
        merged = tail.union(shared.map(lambda r: (r[0] * 2,)))
        enumerator = Enumerator(4, DEFAULT_WEIGHTS, Statistics())
        enumerator.count_consumers(topological_order([merged.node]))
        fusable = enumerator._forward_overhead(tail.node, left.node, 100.0)
        branch = enumerator._forward_overhead(left.node, shared.node, 100.0)
        assert fusable == 0.0 < branch

    @pytest.mark.parametrize("optimize", [True, False])
    def test_reference_compile_shares_the_physical_plan(self, optimize):
        """The unfused reference differs from the fused plan only in its
        chains: every ship, local and combiner annotation is identical."""
        from repro.bench.workloads import cc_chained
        from repro.graphs import erdos_renyi

        def physical(plan, node_ids):
            default = OperatorAnnotation()
            return {
                node_id: (ann.ship, ann.local, ann.combiner)
                for node_id in node_ids
                for ann in [plan.annotations.get(node_id, default)]
            }

        env = ExecutionEnvironment(parallelism=4, optimize=optimize)
        combined = five_op_pipeline(env).reduce_by_key(
            0, lambda a, b: (a[0], a[1] + b[1])
        )
        graph = erdos_renyi(40, 2.0, seed=3)
        for dataset in (five_op_pipeline(env), combined,
                        cc_chained(env, graph)):
            sink = LogicalNode(Contract.SINK, [dataset.node], name="collect")
            logical = LogicalPlan([sink])
            fused = env._compile(logical)
            with unfused():
                reference = env._compile(logical)
            assert fused.chains and not reference.chains
            node_ids = fused.annotations.keys() | reference.annotations.keys()
            assert physical(fused, node_ids) == physical(reference, node_ids)

    def test_forward_edge_cost_scales_with_size(self):
        from repro.optimizer.costs import DEFAULT_WEIGHTS, forward_edge_cost

        small = forward_edge_cost(100.0, DEFAULT_WEIGHTS)
        large = forward_edge_cost(10_000.0, DEFAULT_WEIGHTS)
        assert 0.0 < small < large


class TestFusedChainValidation:
    def test_chain_requires_two_nodes_or_combine(self, env):
        from repro.runtime.plan import FusedChain

        node = env.from_iterable([(1,)]).map(lambda r: r).node
        with pytest.raises(ValueError):
            FusedChain(nodes=(node,), spine_inputs=())

    def test_spine_inputs_length_checked(self, env):
        from repro.runtime.plan import FusedChain

        a = env.from_iterable([(1,)]).map(lambda r: r).node
        b = a.inputs[0]
        with pytest.raises(ValueError):
            FusedChain(nodes=(b, a), spine_inputs=(0, 1))

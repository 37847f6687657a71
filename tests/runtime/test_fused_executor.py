"""Fused-chain execution semantics: results, counters, spans."""

import contextlib

import pytest

from repro import ExecutionEnvironment
from repro.runtime.config import RuntimeConfig
from repro.runtime.plan import FusedChain
from tests.conftest import unfused


def _env(backend=None, parallelism=4, **config_kwargs):
    return ExecutionEnvironment(
        parallelism=parallelism, backend=backend,
        config=RuntimeConfig(**config_kwargs),
    )


def _pipeline(env):
    ds = env.from_iterable([(i, i % 7) for i in range(500)])
    return (
        ds.map(lambda r: (r[0] * 2, r[1]))
        .filter(lambda r: r[1] != 3)
        .map(lambda r: (r[0] + 1, r[1]))
        .flat_map(lambda r: [r, (r[0], r[1] + 10)])
        .filter(lambda r: r[0] % 3 != 0)
    )


def _union_pipeline(env):
    base = env.from_iterable([(i,) for i in range(120)])
    left = base.map(lambda r: (r[0] + 1,))
    tap = env.from_iterable([(1000 + i,) for i in range(40)]).map(
        lambda r: (r[0], )
    )
    return left.union(tap).map(lambda r: (r[0] * 3,)).filter(
        lambda r: r[0] % 2 == 0
    )


def _combine_pipeline(env):
    ds = env.from_iterable([(i % 9, i) for i in range(400)])
    return (
        ds.map(lambda r: (r[0], r[1] + 1))
        .filter(lambda r: r[1] % 5 != 0)
        .reduce_by_key(0, lambda a, b: (a[0], a[1] + b[1]))
    )


def _bulk_iterative(env):
    ds = env.from_iterable([(i, 0) for i in range(60)])
    iteration = env.iterate_bulk(ds, max_iterations=4)
    body = (
        iteration.partial_solution.map(lambda r: (r[0], r[1] + 1))
        .map(lambda r: (r[0], r[1] * 2))
        .filter(lambda r: r[0] >= 0)
    )
    return iteration.close(body)


def _delta_iterative(env):
    vertices = env.from_iterable([(v, v) for v in range(40)])
    edges = [(v, (v + 1) % 40) for v in range(40)]
    workset = env.from_iterable([(dst, src) for src, dst in edges])
    edge_ds = env.from_iterable(edges)
    iteration = env.iterate_delta(
        vertices, workset, key_fields=0, max_iterations=50
    )

    def min_candidate(vid, candidates, stored):
        current = stored[0][1]
        best = min(c for (_v, c) in candidates)
        if best < current:
            yield (vid, best)

    delta = iteration.workset.cogroup(
        iteration.solution_set, 0, 0, min_candidate
    )
    next_workset = (
        delta.join(edge_ds, 0, 0, lambda d, e: (e[1], d[1]))
        .map(lambda c: (c[0], c[1]))
        .filter(lambda c: c[1] < c[0])
    )
    return iteration.close(
        delta, next_workset,
        should_replace=lambda new, old: new[1] < old[1],
        mode="superstep",
    )


WORKLOADS = {
    "pipeline": _pipeline,
    "union": _union_pipeline,
    "combine": _combine_pipeline,
    "bulk": _bulk_iterative,
    "delta": _delta_iterative,
}


def _run(fused, workload, backend=None, **config_kwargs):
    env = _env(backend=backend, **config_kwargs)
    with contextlib.nullcontext() if fused else unfused():
        result = sorted(env.collect(WORKLOADS[workload](env)))
    return result, env


class TestFusedEquivalence:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_results_and_counters_match_unfused(self, workload):
        fused, fused_env = _run(True, workload)
        unfused, unfused_env = _run(False, workload)
        assert fused == unfused
        assert fused_env.metrics.logical() == \
            unfused_env.metrics.logical()
        # fusion preserves the Section 4.3 edge caching too
        assert fused_env.metrics.cache_hits == unfused_env.metrics.cache_hits
        assert fused_env.metrics.cache_builds == \
            unfused_env.metrics.cache_builds
        assert fused_env.last_plan.chains  # the workload actually fused

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_batch_size_one_is_identical(self, workload):
        fused, fused_env = _run(True, workload, batch_size=1)
        unfused, unfused_env = _run(False, workload, batch_size=1)
        assert fused == unfused
        assert fused_env.metrics.logical() == \
            unfused_env.metrics.logical()

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_multiprocess_matches_simulated_when_fused(self, workload):
        sim, sim_env = _run(True, workload, parallelism=3)
        mp, mp_env = _run(True, workload, backend="multiprocess",
                          parallelism=3)
        assert mp == sim
        assert mp_env.metrics.logical() == \
            sim_env.metrics.logical()


class TestChainSpans:
    def _roots(self, env):
        return env.tracer.roots

    def _find(self, spans, predicate, out):
        for span in spans:
            if predicate(span):
                out.append(span)
            self._find(span.children, predicate, out)
        return out

    def test_chain_span_replaces_operator_spans(self):
        env = _env(trace=True)
        env.collect(_pipeline(env))
        chain_spans = self._find(
            self._roots(env), lambda s: s.category == "chain", []
        )
        assert len(chain_spans) == 1
        span = chain_spans[0]
        assert span.name == "chain[map→filter→map→flat_map→filter]"
        # nested per-operator spans carry the member counter deltas
        assert [c.name for c in span.children if c.category == "operator"] \
            == ["operator:map", "operator:filter", "operator:map",
                "operator:flat_map", "operator:filter"]
        for child in span.children:
            if child.category != "operator":
                continue
            assert child.attributes.get("fused") is True
            assert child.counters.get("records_processed", 0) >= 0
            assert "records_out" in child.counters
        # the fused operators no longer execute as standalone spans
        fused_op_spans = self._find(
            self._roots(env),
            lambda s: s.category == "operator"
            and not s.attributes.get("fused"),
            [],
        )
        assert all("map" not in s.name and "filter" not in s.name
                   for s in fused_op_spans)

    def test_chain_span_name_is_deterministic(self):
        names = set()
        for _ in range(2):
            env = _env(trace=True)
            env.collect(_pipeline(env))
            spans = self._find(
                self._roots(env), lambda s: s.category == "chain", []
            )
            names.update(s.name for s in spans)
        assert names == {"chain[map→filter→map→flat_map→filter]"}

    def test_per_operator_counter_totals_match_metrics(self):
        env = _env(trace=True)
        env.collect(_pipeline(env))
        chain = self._find(
            self._roots(env), lambda s: s.category == "chain", []
        )[0]
        by_metrics = {}
        for name, count in env.metrics.records_processed.items():
            key = name.split("#")[0]
            by_metrics[key] = by_metrics.get(key, 0) + count
        by_spans = {}
        for child in chain.children:
            if child.category != "operator":
                continue
            key = child.name.replace("operator:", "")
            by_spans[key] = by_spans.get(key, 0) + \
                child.counters["records_processed"]
        assert by_spans == by_metrics

    def test_top_level_logical_totals_match_unfused(self):
        from repro.observability import LOGICAL_SPAN_COUNTERS

        def totals(env):
            return {
                counter: sum(
                    root.counters.get(counter, 0)
                    for root in self._roots(env)
                )
                for counter in LOGICAL_SPAN_COUNTERS
            }

        fused_env = _env(trace=True)
        fused_env.collect(_pipeline(fused_env))
        unfused_env = _env(trace=True)
        with unfused():
            unfused_env.collect(_pipeline(unfused_env))
        assert totals(fused_env) == totals(unfused_env)

    def test_combine_chain_span_nests_inside_reduce(self):
        env = ExecutionEnvironment(
            parallelism=4, optimize=False,
            config=RuntimeConfig(trace=True),
        )
        env.collect(_combine_pipeline(env))
        chains = self._find(
            self._roots(env), lambda s: s.category == "chain", []
        )
        assert any(s.name.endswith("combine]") for s in chains)
        combine_children = self._find(
            self._roots(env),
            lambda s: s.category == "operator"
            and s.name.endswith(".combine"),
            [],
        )
        assert combine_children


class TestFusedChainStructure:
    def test_tail_is_combine_node_when_present(self, env):
        mapped = env.from_iterable([(1, 2)]).map(lambda r: r)
        reduce = mapped.reduce_by_key(0, lambda a, b: a)
        chain = FusedChain(
            nodes=(mapped.node,), spine_inputs=(),
            combine_node=reduce.node,
        )
        assert chain.tail is reduce.node
        assert chain.describe() == "chain[map→combine]"

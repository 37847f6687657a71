"""The multiprocess backend is bit-identical to the simulator.

These tests hold real forked workers to the simulator's exact results
and *logical* counters — the property the differential audit enforces
at scale (``python -m repro.bench audit --backends simulated,pool``;
``multiprocess`` is that pool forked per job).  Kept small here so CI
stays quick.
"""

import pytest

from repro import ExecutionEnvironment
from repro.algorithms import connected_components as cc
from repro.algorithms import pagerank as pr
from repro.bench import audit
from repro.graphs import erdos_renyi

pytestmark = pytest.mark.verify_invariants

PARALLELISM = 3


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(60, 2.5, seed=19)


def _env(backend):
    return ExecutionEnvironment(PARALLELISM, backend=backend)


class TestPlanBackendEquivalence:
    def test_bulk_cc_matches_bitwise(self, graph):
        sim_env = _env("simulated")
        expected = cc.cc_bulk(sim_env, graph)
        mp_env = _env("multiprocess")
        actual = cc.cc_bulk(mp_env, graph)
        assert actual == expected
        assert mp_env.metrics.logical() == sim_env.metrics.logical()

    @pytest.mark.parametrize("variant,mode", [
        ("cogroup", "superstep"),
        ("match", "microstep"),
        ("match", "async"),
    ])
    def test_delta_cc_matches_in_every_mode(self, graph, variant, mode):
        sim_env = _env("simulated")
        expected = cc.cc_incremental(sim_env, graph, variant=variant,
                                     mode=mode)
        mp_env = _env("multiprocess")
        actual = cc.cc_incremental(mp_env, graph, variant=variant, mode=mode)
        assert actual == expected
        assert mp_env.metrics.logical() == sim_env.metrics.logical()

    @pytest.mark.parametrize("plan", ["partition", "broadcast"])
    def test_pagerank_floats_are_bitwise_equal(self, graph, plan):
        """Frames concatenate in source-rank order = the simulator's
        partition scan, so even float summation orders coincide."""
        sim_env = _env("simulated")
        expected = pr.pagerank_bulk(sim_env, graph, iterations=4, plan=plan)
        mp_env = _env("multiprocess")
        actual = pr.pagerank_bulk(mp_env, graph, iterations=4, plan=plan)
        assert actual == expected  # exact, not approx
        assert mp_env.metrics.logical() == sim_env.metrics.logical()

    def test_multiprocess_counts_serialized_bytes(self, graph):
        mp_env = _env("multiprocess")
        cc.cc_bulk(mp_env, graph)
        assert mp_env.metrics.bytes_shipped > 0
        sim_env = _env("simulated")
        cc.cc_bulk(sim_env, graph)
        assert sim_env.metrics.bytes_shipped == 0


class TestAuditCrossBackend:
    def test_audit_runs_every_engine_on_both_backends(self):
        result = audit.run(seeds=(7,), num_vertices=40,
                           pagerank_iterations=4,
                           backends=("simulated", "multiprocess"))
        result.raise_on_failure()
        # 11 engine cells x 2 backends
        assert len(result.runs) == 22
        assert {run.backend for run in result.runs} == {
            "simulated", "multiprocess"
        }
        report = result.report()
        assert "identical logical counters" in report

    def test_audit_detects_a_backend_divergence(self):
        baselines = {}
        metrics = ExecutionEnvironment(2).metrics
        key = ("CC", "engine", "g")
        assert audit._cross_backend_check(
            "simulated", {1: 1}, metrics, key, baselines
        ) is None
        detail = audit._cross_backend_check(
            "multiprocess", {1: 2}, metrics, key, baselines
        )
        assert detail is not None and "results differ" in detail

"""The persistent pool: same answers as the simulator, same workers.

The pool exists so one set of forked workers serves many jobs.  These
tests pin the two halves of that claim: results and logical counters
stay bitwise-identical to the simulator (job after job, with no state
bleeding between them), and the worker PIDs genuinely persist.
"""

import pytest

from repro import ExecutionEnvironment
from repro.algorithms import connected_components as cc
from repro.algorithms import pagerank as pr
from repro.cluster import BACKENDS, PoolBackend, resolve_backend
from repro.graphs import erdos_renyi

pytestmark = pytest.mark.verify_invariants

PARALLELISM = 3


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(60, 2.5, seed=19)


class TestPoolRegistration:
    def test_pool_is_registered_and_resolvable(self):
        assert BACKENDS["pool"] is PoolBackend
        backend = resolve_backend("pool")
        assert isinstance(backend, PoolBackend)
        backend.close()

    def test_environment_accepts_the_string_spelling(self, graph):
        env = ExecutionEnvironment(2, backend="pool")
        try:
            expected = cc.cc_bulk(ExecutionEnvironment(2), graph)
            assert cc.cc_bulk(env, graph) == expected
        finally:
            env.backend.close()


class TestPoolReuse:
    def test_three_consecutive_jobs_reuse_the_same_workers(self, graph):
        """≥3 jobs on one pool: PIDs persist, every job matches the
        simulator bitwise, and counters/traces reset between jobs."""
        backend = PoolBackend()
        try:
            jobs = [
                lambda env: cc.cc_bulk(env, graph),
                lambda env: pr.pagerank_bulk(env, graph, iterations=4,
                                             plan="partition"),
                lambda env: cc.cc_incremental(env, graph, variant="cogroup",
                                              mode="superstep"),
            ]
            pids = None
            for job in jobs:
                sim_env = ExecutionEnvironment(PARALLELISM)
                pool_env = ExecutionEnvironment(PARALLELISM, backend=backend)
                assert job(pool_env) == job(sim_env)
                # clean counter state: each job's merged collector equals
                # the simulator's for that job alone — nothing from the
                # previous job leaked into it
                assert pool_env.metrics.logical() == sim_env.metrics.logical()
                if pids is None:
                    pids = backend.pool.worker_pids
                else:
                    assert backend.pool.worker_pids == pids
            assert all(pid is not None for pid in pids)
        finally:
            backend.close()

    def test_pool_resizes_when_parallelism_changes(self, graph):
        backend = PoolBackend()
        try:
            expected2 = cc.cc_bulk(ExecutionEnvironment(2), graph)
            expected3 = cc.cc_bulk(ExecutionEnvironment(3), graph)
            assert cc.cc_bulk(
                ExecutionEnvironment(2, backend=backend), graph
            ) == expected2
            pids2 = backend.pool.worker_pids
            assert cc.cc_bulk(
                ExecutionEnvironment(3, backend=backend), graph
            ) == expected3
            assert len(backend.pool.worker_pids) == 3
            assert backend.pool.worker_pids != pids2
        finally:
            backend.close()

    def test_trace_state_resets_between_jobs(self, graph):
        from repro.runtime.config import RuntimeConfig

        backend = PoolBackend()
        config = RuntimeConfig(trace=True, trace_path=None)
        try:
            root_counts = []
            for _ in range(2):
                env = ExecutionEnvironment(2, backend=backend,
                                           config=config)
                cc.cc_bulk(env, graph)
                timelines = env.last_worker_traces
                assert timelines is not None and len(timelines) == 2
                assert [t.rank for t in timelines] == [0, 1]
                root_counts.append([len(t.roots) for t in timelines])
                assert all(count > 0 for count in root_counts[-1])
            # a fresh tracer per job: identical span trees both times,
            # not an accumulation of job 1's spans into job 2's timeline
            assert root_counts[0] == root_counts[1]
        finally:
            backend.close()

    def test_close_is_idempotent_and_pool_recreates(self, graph):
        backend = PoolBackend()
        try:
            expected = cc.cc_bulk(ExecutionEnvironment(2), graph)
            assert cc.cc_bulk(
                ExecutionEnvironment(2, backend=backend), graph
            ) == expected
            backend.close()
            backend.close()
            assert backend.pool is None
            # closed backend simply re-forks on the next job
            assert cc.cc_bulk(
                ExecutionEnvironment(2, backend=backend), graph
            ) == expected
        finally:
            backend.close()

"""A finished job's plan is freed by reference counting alone.

Placeholders and solution-set access nodes name their enclosing
iteration, which reaches them back through its body; if that back-edge
were strong, every plan (its source data included) would wait for the
cycle collector's oldest generation.  With the collector off, these
tests fail at the commit before the back-edge became weak.
"""

import gc
import weakref

import pytest

from repro import ExecutionEnvironment
from repro.algorithms import connected_components as cc
from repro.algorithms import pagerank as pr
from repro.cluster import codec
from repro.cluster.pool import _PlanJob
from repro.graphs import erdos_renyi

JOBS = {
    "pagerank_bulk": lambda env, graph: pr.pagerank_bulk(env, graph, 3),
    "cc_incremental": cc.cc_incremental,
}


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _source_refs(exec_plan):
    refs = [weakref.ref(node) for node in exec_plan.logical_plan.nodes()
            if node.is_source()]
    assert refs
    return refs


@pytest.mark.parametrize("job", sorted(JOBS))
@pytest.mark.parametrize("backend", ["simulated", "pool"])
def test_plan_dies_when_the_env_lets_go(backend, job, collector_off):
    graph = erdos_renyi(300, 3.0, seed=5)
    with ExecutionEnvironment(2, backend=backend) as env:
        JOBS[job](env, graph)
        sources = _source_refs(env.last_plan)
        # the next job replaces the env's last plan and executor
        env.collect(env.from_iterable([(0,)]))
        assert [ref() for ref in sources] == [None] * len(sources)


@pytest.mark.parametrize("job", sorted(JOBS))
def test_plan_shipped_to_a_worker_dies_with_its_job(job, collector_off):
    """The pool's codec rebuilds the weak back-edge around the worker's
    own copy of the iteration, so the worker frees its plan too."""
    env = ExecutionEnvironment(2)
    JOBS[job](env, erdos_renyi(300, 3.0, seed=5))
    shipped = codec.loads(codec.dumps(_PlanJob(env.last_plan, env)))
    nodes = shipped.exec_plan.logical_plan.nodes()
    (iteration,) = [node for node in nodes if node.is_iteration()]
    for node in nodes:
        if node.is_placeholder():
            assert node.enclosing_iteration is iteration
    sources = _source_refs(shipped.exec_plan)
    del shipped, nodes, iteration, node
    assert [ref() for ref in sources] == [None] * len(sources)


def test_a_dropped_simulated_env_dies(collector_off, executors):
    """The simulated executor keeps no reference to its environment and
    the environment keeps none to its executor, so neither becomes
    cyclic garbage."""
    env = ExecutionEnvironment(2)
    pr.pagerank_bulk(env, erdos_renyi(300, 3.0, seed=5), 3)
    assert env.iteration_summaries
    assert [ref() for ref in executors] == [None]
    dropped = weakref.ref(env)
    del env
    assert dropped() is None


class _Marker:
    """A weakly referenceable payload created inside a job."""

    live = weakref.WeakSet()

    def __init__(self):
        self.live.add(self)


def test_a_finished_jobs_intermediates_die():
    """Fails at the parent commit: the environment held its last
    executor, whose memo kept the reduce's output (one marker per key)
    alive until the next job."""
    env = ExecutionEnvironment(2)
    result = (
        env.from_iterable([(i,) for i in range(1000)])
        .map(lambda r: (r[0] % 10, _Marker()))
        .reduce_by_key(0, lambda a, b: a)
        .map(lambda r: (r[0],))
        .collect()
    )
    assert sorted(result) == [(k,) for k in range(10)]
    gc.collect()
    assert len(_Marker.live) == 0

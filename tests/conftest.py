"""Shared fixtures: small graphs and environments used across the suite."""

import contextlib

import pytest

from repro import ExecutionEnvironment
from repro.common import columns
from repro.graphs import Graph, erdos_renyi
from repro.optimizer import chaining


@contextlib.contextmanager
def unfused():
    """Compile plans without chain fusion while the block runs.

    The per-operator reference for the fused drivers: plans keep the
    enumerator's physical choices, but ``plan_chains`` plans no chains,
    so every operator runs its own driver.  ``_compile`` imports
    ``plan_chains`` at call time and SPMD backends compile in the
    parent, so this holds on every backend.
    """
    def no_chains(exec_plan):
        exec_plan.chains = {}
        exec_plan.fused_ids = frozenset()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chaining, "plan_chains", no_chains)
        yield


@contextlib.contextmanager
def numpy_stubbed():
    """Run the block as if numpy were not importable.

    The row-kernel reference for the vectorized data plane: with the
    probed module stubbed to ``None``, no key vector is an int64 array,
    so every batch, channel, driver and solution-set path takes its row
    loop.  A worker pool forked inside the block inherits the stub, so
    it holds on every backend.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(columns, "_np", None)
        yield


@pytest.fixture
def env():
    """A 4-way optimized environment (the default configuration)."""
    return ExecutionEnvironment(parallelism=4)


@pytest.fixture
def env_naive():
    """A 4-way environment using the rule-based (naive) planner."""
    return ExecutionEnvironment(parallelism=4, optimize=False)


@pytest.fixture
def sample9():
    """The 9-vertex, two-component example graph of Figure 1 (0-indexed)."""
    edges = [(0, 1), (1, 2), (0, 2), (2, 3), (4, 5), (5, 6), (6, 7),
             (7, 8), (6, 8)]
    return Graph(9, edges, name="sample9")


@pytest.fixture
def small_random():
    """A 120-vertex sparse random graph with several components."""
    return erdos_renyi(120, 2.5, seed=42)


@pytest.fixture
def path_graph():
    """A 10-vertex path: the worst case for propagation depth."""
    return Graph(10, [(i, i + 1) for i in range(9)], name="path10")

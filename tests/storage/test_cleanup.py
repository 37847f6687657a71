"""Spill-file cleanup guarantees: no backend, exit path, or crash mode
may leak the session's scratch directory."""

import glob
import os
import signal
import subprocess
import sys
import tempfile

import pytest

from repro.algorithms.connected_components import cc_incremental
from repro.dataflow.environment import ExecutionEnvironment
from repro.graphs import Graph
from repro.runtime.config import RuntimeConfig
from repro.runtime.recovery import FailureInjector

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
)


def _spilly_collect(env):
    left = env.from_iterable([(i % 11, i) for i in range(120)], name="l")
    right = env.from_iterable([(i % 5, -i) for i in range(90)], name="r")
    joined = left.join(right, 0, 0, lambda a, b: (a[0], a[1] + b[1]))
    return env.collect(
        joined.reduce_by_key(0, lambda a, b: (a[0], a[1] + b[1]))
    )


class TestSessionCleanup:
    @pytest.mark.parametrize("backend", [None, "multiprocess", "pool"])
    def test_close_removes_spill_tree(self, backend):
        config = RuntimeConfig(memory_budget_bytes=512)
        env = ExecutionEnvironment(
            parallelism=2, config=config, backend=backend
        )
        try:
            assert _spilly_collect(env)
            path = env.storage_session.path
            assert os.path.isdir(path)
        finally:
            env.close()
        assert not os.path.exists(path)

    def test_worker_views_nest_inside_the_owned_tree(self):
        """Distributed workers spill under worker-*/ inside the parent
        session directory, so the parent sweep covers their files."""
        config = RuntimeConfig(memory_budget_bytes=512)
        env = ExecutionEnvironment(
            parallelism=2, config=config, backend="pool"
        )
        try:
            assert _spilly_collect(env)
            path = env.storage_session.path
            worker_dirs = glob.glob(os.path.join(path, "worker-*"))
            assert len(worker_dirs) == 2
        finally:
            env.close()
        assert not os.path.exists(path)

    def test_atexit_sweep_covers_unclosed_sessions(self):
        """A process that exits without calling close() still removes
        every session it owns (the atexit sweep)."""
        code = (
            "from repro.storage import StorageSession\n"
            "s = StorageSession()\n"
            "open(s.new_file('orphan'), 'wb').close()\n"
            "print(s.path)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": REPO_SRC},
        )
        assert proc.returncode == 0, proc.stderr
        path = proc.stdout.strip()
        assert path
        assert not os.path.exists(path)

    def test_killed_pool_worker_cannot_leak_files(self):
        """SIGKILL a pool worker after it has spilled: the worker never
        runs any cleanup of its own, but its files live inside the
        parent-owned tree, so the parent's close sweeps them."""
        config = RuntimeConfig(memory_budget_bytes=512)
        env = ExecutionEnvironment(
            parallelism=2, config=config, backend="pool"
        )
        try:
            assert _spilly_collect(env)
            path = env.storage_session.path
            worker_dirs = glob.glob(os.path.join(path, "worker-*"))
            assert worker_dirs
            # strand a file a worker "left behind mid-spill"
            stranded = os.path.join(worker_dirs[0], "stranded-spill.bin")
            open(stranded, "wb").close()

            pool = env.backend.pool
            victim = pool.workers[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=30)
            assert not victim.is_alive()
        finally:
            env.close()
        assert not os.path.exists(stranded)
        assert not os.path.exists(path)

    def test_close_is_idempotent_and_context_managed(self):
        config = RuntimeConfig(memory_budget_bytes=512)
        with ExecutionEnvironment(parallelism=2, config=config) as env:
            assert _spilly_collect(env)
            path = env.storage_session.path
        assert not os.path.exists(path)
        env.close()  # second close must be a no-op

    def test_fresh_session_after_close(self):
        """An environment reused after close() gets a new session."""
        config = RuntimeConfig(memory_budget_bytes=512)
        env = ExecutionEnvironment(parallelism=2, config=config)
        try:
            assert _spilly_collect(env)
            first = env.storage_session.path
            env.close()
            assert _spilly_collect(env)
            second = env.storage_session.path
            assert second != first
            assert os.path.isdir(second)
        finally:
            env.close()
        assert not os.path.exists(second)


def _recovered_cc(backend, budget):
    """CC on a 40-vertex path, failing at superstep 5 and replaying from
    the checkpoint of superstep 3; returns (result, logical counters)."""
    graph = Graph(40, [(i, i + 1) for i in range(39)], name="path40")
    config = RuntimeConfig(memory_budget_bytes=budget)
    with ExecutionEnvironment(2, config=config, backend=backend) as env:
        env.checkpoint_interval = 2
        env.failure_injector = FailureInjector(5)
        result = cc_incremental(env, graph)
        assert env.last_checkpoint_store.recoveries == 1
        return result, env.metrics.logical()


@pytest.mark.parametrize("backend", ["simulated", "pool"])
def test_recovered_out_of_core_run_leaves_nothing_behind(
        backend, tmp_path, monkeypatch):
    """A restored disk-backed solution set rebuilds its logs inside the
    environment's own session, so closing the environment (and, on the
    pool, its workers) leaves no file in the temp directory — and the
    run equals the same recovered run without a budget."""
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
    budgeted = _recovered_cc(backend, 1 << 30)
    # multiprocessing keeps its own process-lifetime scratch directory
    left = [name for name in os.listdir(tmp_path)
            if not name.startswith("pymp-")]
    assert left == []
    assert budgeted == _recovered_cc(backend, None)

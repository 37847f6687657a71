"""Failure injection and checkpoint recovery (Section 4.2)."""

import pytest

from repro import ExecutionEnvironment
from repro.algorithms import connected_components as cc
from repro.cluster import PoolBackend
from repro.graphs import erdos_renyi
from repro.runtime.recovery import (
    CheckpointStore,
    FailureInjector,
    SimulatedFailure,
)


@pytest.fixture(scope="module")
def backends():
    """{name: backend spec}; one pool serves every recovery test here."""
    pool = PoolBackend()
    yield {"simulated": None, "pool": pool}
    pool.close()


def _replay_stats(env):
    store = env.last_checkpoint_store
    return (store.snapshots_taken, store.recoveries,
            store.supersteps_replayed)


class TestCheckpointStore:
    def test_due_every_interval(self):
        store = CheckpointStore(interval=3)
        assert [s for s in range(1, 10) if store.due(s)] == [1, 4, 7]

    def test_snapshots_are_deep_copies(self):
        store = CheckpointStore(interval=1)
        state = [{1: "a"}]
        store.take(1, state, [])
        state[0][1] = "mutated"
        restored = store.restore(failed_superstep=3)
        assert restored.state == [{1: "a"}]
        assert store.supersteps_replayed == 2

    def test_restore_without_snapshot_fails(self):
        store = CheckpointStore(interval=1)
        with pytest.raises(RuntimeError):
            store.restore(1)

    def test_restored_state_is_itself_a_copy(self):
        store = CheckpointStore(interval=1)
        store.take(1, {"x": 1}, [])
        first = store.restore(2)
        first.state["x"] = 99
        second = store.restore(2)
        assert second.state == {"x": 1}


class TestFailureInjector:
    def test_fires_once(self):
        injector = FailureInjector(fail_at_superstep=3)
        injector(1)
        injector(2)
        with pytest.raises(SimulatedFailure):
            injector(3)
        injector(3)  # second pass over the same superstep: no failure

    def test_failure_carries_superstep(self):
        injector = FailureInjector(5)
        with pytest.raises(SimulatedFailure) as excinfo:
            injector(5)
        assert excinfo.value.superstep == 5


class TestEndToEndRecovery:
    @pytest.fixture
    def graph(self):
        return erdos_renyi(150, 3.0, seed=77)

    def _run(self, graph, fail_at=None, interval=0):
        env = ExecutionEnvironment(4)
        env.checkpoint_interval = interval
        if fail_at is not None:
            env.failure_injector = FailureInjector(fail_at)
        result = cc.cc_incremental(env, graph, variant="cogroup",
                                   mode="superstep")
        return env, result

    def test_recovered_run_matches_failure_free_run(self, graph):
        _env_ok, expected = self._run(graph)
        # checkpoints land on supersteps 1, 3, 5, ...; failing at 4 forces
        # a genuine replay of superstep 3
        env, recovered = self._run(graph, fail_at=4, interval=2)
        assert recovered == expected
        store = env.last_checkpoint_store
        assert store.recoveries == 1
        assert store.supersteps_replayed >= 1

    def test_failure_at_first_checkpointed_superstep(self, graph):
        _env_ok, expected = self._run(graph)
        env, recovered = self._run(graph, fail_at=1, interval=1)
        assert recovered == expected
        assert env.last_checkpoint_store.recoveries == 1

    def test_no_failure_means_no_recovery(self, graph):
        env, _result = self._run(graph, fail_at=None, interval=2)
        store = env.last_checkpoint_store
        assert store.recoveries == 0
        assert store.snapshots_taken >= 1

    def test_failure_without_checkpointing_propagates(self, graph):
        env = ExecutionEnvironment(4)
        env.failure_injector = FailureInjector(2)
        with pytest.raises((SimulatedFailure, RuntimeError)):
            cc.cc_incremental(env, graph, variant="cogroup",
                              mode="superstep")

    @pytest.mark.parametrize("backend", ["simulated", "pool"])
    def test_bulk_iteration_recovers_too(self, graph, backends, backend):
        """Section 4.2's logging applies to bulk iterations as well —
        and replays the same work wherever the plan is interpreted."""
        from repro.algorithms import pagerank as pr

        env_ok = ExecutionEnvironment(4)
        expected = pr.pagerank_bulk(env_ok, graph, iterations=8)

        def recover(spec):
            env = ExecutionEnvironment(4, backend=spec)
            env.checkpoint_interval = 3
            env.failure_injector = FailureInjector(5)
            return env, pr.pagerank_bulk(env, graph, iterations=8)

        env, recovered = recover(backends[backend])
        assert all(
            abs(recovered[k] - expected[k]) < 1e-12 for k in expected
        )
        assert env.last_checkpoint_store.recoveries == 1
        sim_env, sim_recovered = recover(None)
        assert recovered == sim_recovered
        assert _replay_stats(env) == _replay_stats(sim_env)
        assert (env.metrics.logical()
                == sim_env.metrics.logical())

    def test_checkpoint_interval_trades_replay_for_snapshots(self, graph):
        env_fine, _r1 = self._run(graph, fail_at=4, interval=1)
        env_coarse, _r2 = self._run(graph, fail_at=4, interval=3)
        assert (env_fine.last_checkpoint_store.supersteps_replayed
                <= env_coarse.last_checkpoint_store.supersteps_replayed)
        assert (env_fine.last_checkpoint_store.snapshots_taken
                >= env_coarse.last_checkpoint_store.snapshots_taken)


class TestPickledCheckpoints:
    """The log is a serialization round-trip, not an in-memory copy."""

    def test_take_pays_and_records_serialization_cost(self):
        store = CheckpointStore(interval=1)
        store.take(1, {"v": list(range(50))}, [(1, 2)])
        first = store.checkpoint_bytes
        assert first > 0
        store.take(2, {"v": list(range(500))}, [(1, 2)])
        assert store.checkpoint_bytes > first
        assert store.total_bytes == first + store.checkpoint_bytes

    def test_unpicklable_state_is_rejected_at_take_time(self):
        store = CheckpointStore(interval=1)
        with pytest.raises(TypeError, match="picklable"):
            store.take(1, {"udf": lambda x: x}, [])

    def test_latest_reconstructs_an_independent_copy(self):
        store = CheckpointStore(interval=1)
        store.take(3, [{0: 0}], [])
        a, b = store.latest, store.latest
        assert a.state == b.state and a.state is not b.state
        assert a.superstep == 3
        assert CheckpointStore(interval=1).latest is None


#: (mode, variant, backend); every mode runs as supersteps of one loop,
#: so every mode logs and replays on every backend
RECOVERY_CASES = [
    ("superstep", "cogroup", "simulated"),
    ("superstep", "cogroup", "pool"),
    ("microstep", "match", "simulated"),
    ("microstep", "match", "pool"),
    ("async", "match", "simulated"),
    ("async", "match", "pool"),
]


class TestRecoveryInEveryDeltaMode:
    """Satellite check: failure + restore works in all three execution
    modes of a delta iteration, replaying exactly the supersteps between
    the latest checkpoint and the failure — on a real backend too."""

    @pytest.fixture
    def graph(self):
        return erdos_renyi(120, 3.0, seed=41)

    def _run(self, graph, mode, variant, fail_at=None, interval=0,
             backend=None):
        env = ExecutionEnvironment(4, backend=backend)
        env.checkpoint_interval = interval
        if fail_at is not None:
            env.failure_injector = FailureInjector(fail_at)
        result = cc.cc_incremental(env, graph, variant=variant, mode=mode)
        return env, result

    @pytest.mark.parametrize("mode,variant,backend", RECOVERY_CASES)
    def test_recovered_run_matches_and_replays_the_gap(
            self, graph, backends, mode, variant, backend):
        _env, expected = self._run(graph, mode, variant)
        # checkpoints land on supersteps 1, 3, 5, ...; failing at 4
        # replays supersteps 3 and 4
        env, recovered = self._run(graph, mode, variant, fail_at=4,
                                   interval=2, backend=backends[backend])
        assert recovered == expected
        store = env.last_checkpoint_store
        assert store.recoveries == 1
        assert store.supersteps_replayed == 4 - 3

    @pytest.mark.parametrize("mode,variant,backend", RECOVERY_CASES)
    def test_counters_after_recovery_include_replayed_work(
            self, graph, backends, mode, variant, backend):
        env_ok, _expected = self._run(graph, mode, variant)
        env, _recovered = self._run(graph, mode, variant, fail_at=4,
                                    interval=2, backend=backends[backend])
        # the recovered run redoes supersteps 3-4, so it logs strictly
        # more superstep entries than the failure-free run
        assert env.metrics.supersteps > env_ok.metrics.supersteps
        # ... and the same ones, superstep for superstep, whichever
        # backend replays them
        sim_env, _ = self._run(graph, mode, variant, fail_at=4, interval=2)
        assert _replay_stats(env) == _replay_stats(sim_env)
        assert (env.metrics.logical()
                == sim_env.metrics.logical())

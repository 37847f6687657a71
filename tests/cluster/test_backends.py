"""Backend resolution, SPMD collectives, and the one-shot pool lifecycle."""

import multiprocessing
import os

import pytest

from repro import ExecutionEnvironment
from repro.cluster import (
    LOCAL,
    MultiprocessBackend,
    PoolBackend,
    SimulatedBackend,
    WorkerCrash,
    resolve_backend,
)
from repro.common.batch import RecordBatch

#: records whose values ``==`` cannot tell apart from their look-alikes
#: (bools and ints, ``-0.0`` and ``0.0``), that ``==`` never matches
#: (NaN), that no int64 column holds, nested, and of mixed arity
AWKWARD_RECORDS = [
    (True, 1, False, 0),
    (-0.0, float("nan"), 1.5),
    (2 ** 63, -(2 ** 63) - 1, 10 ** 30),
    ((1, (2, "x")), ("nested", (None, b"raw"))),
    (7,),
    (1, 2.0, "three", 4, 5),
]


def _typed(value):
    """``value`` with every leaf spelled as ``(type, repr)``."""
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [_typed(item) for item in value]
    return type(value).__name__, repr(value)


class TestResolveBackend:
    def test_none_is_the_simulator(self):
        assert isinstance(resolve_backend(None), SimulatedBackend)

    def test_names_hit_the_registry(self):
        assert isinstance(resolve_backend("simulated"), SimulatedBackend)
        assert isinstance(
            resolve_backend("multiprocess"), MultiprocessBackend
        )

    def test_instances_pass_through(self):
        backend = MultiprocessBackend(timeout=5.0)
        assert resolve_backend(backend) is backend

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="multiprocess"):
            resolve_backend("gpu")


class TestRunProgram:
    def test_simulated_runs_inline_with_local_cluster(self):
        seen = []

        def program(cluster):
            seen.append(cluster)
            return "result", None

        result, _metrics = SimulatedBackend().run_program(program, 4)
        assert result == "result"
        assert seen == [LOCAL]

    def test_multiprocess_workers_see_their_rank_and_peers(self):
        def program(cluster):
            # every worker contributes its rank; the collectives must
            # agree on the totals across all four processes
            total = cluster.allreduce_sum(cluster.rank)
            gathered = cluster.allgather(cluster.rank * 10)
            return {"total": total, "gathered": gathered, "size": cluster.size}, None

        result, _metrics = MultiprocessBackend(timeout=30.0).run_program(
            program, 4
        )
        assert result == {
            "total": 0 + 1 + 2 + 3,
            "gathered": [0, 10, 20, 30],
            "size": 4,
        }

    def test_exchange_routes_frames_by_source_rank(self):
        def program(cluster):
            frames = [
                [(cluster.rank, target)] if target != cluster.rank
                else [(cluster.rank, cluster.rank)]
                for target in range(cluster.size)
            ]
            received = cluster.exchange(frames)
            return received, None

        result, _metrics = MultiprocessBackend(timeout=30.0).run_program(
            program, 3
        )
        # coordinator's view: frame i came from source rank i, addressed
        # to rank 0
        assert result == [[(0, 0)], [(1, 0)], [(2, 0)]]

    def test_one_exchange_is_one_message_per_peer(self):
        def program(cluster):
            frame = [(cluster.rank, i) for i in range(5_000)]
            sent = cluster.endpoint.frames_sent
            # the channel frames chunks; the wire does not chunk again
            cluster.exchange([frame] * cluster.size, batch_size=1)
            sent = cluster.endpoint.frames_sent - sent
            return cluster.allgather(sent), None

        result, _metrics = MultiprocessBackend(timeout=30.0).run_program(
            program, 3
        )
        assert result == [2, 2, 2]

    def test_exchange_keeps_every_value_and_type(self):
        # each rank sends the awkward records to its successor, an empty
        # frame to its other peer, then a column-born batch the same way
        column_born = RecordBatch.from_columns(
            *RecordBatch.wrap([(1, -0.0), (2 ** 62, float("nan"))]).columns()
        )

        def program(cluster):
            successor = (cluster.rank + 1) % cluster.size
            views = [
                _typed(cluster.exchange([
                    payload if target == successor else []
                    for target in range(cluster.size)
                ]))
                for payload in (AWKWARD_RECORDS, column_born)
            ]
            return cluster.allgather(views), None

        result, _metrics = MultiprocessBackend(timeout=30.0).run_program(
            program, 3
        )
        for rank, views in enumerate(result):
            for payload, view in zip(
                (AWKWARD_RECORDS, column_born.records), views
            ):
                expected = [[] for _ in range(3)]
                expected[(rank - 1) % 3] = payload
                assert view == _typed(expected)

    def test_local_route_is_the_identity(self):
        # the local context owns every partition and is the only source
        frames = [[(0, "a")], [], [(2, "b"), (2, "c")]]
        assert LOCAL.owned_partitions(3) == range(3)
        assert LOCAL.route(frames) is frames

    def test_route_fills_owned_slots_source_rank_major(self):
        def program(cluster):
            frames = [
                [(cluster.rank, target, i) for i in range(2)]
                for target in range(cluster.size)
            ]
            views = {
                "owned": tuple(cluster.owned_partitions(cluster.size)),
                "whole": cluster.route(frames),
                "again": cluster.route(frames),
            }
            return cluster.allgather(views), None

        result, _metrics = MultiprocessBackend(timeout=30.0).run_program(
            program, 3
        )
        for rank, views in enumerate(result):
            expected = [[], [], []]
            # every source's frame for this rank, sources ascending
            expected[rank] = [
                (source, rank, i) for source in range(3) for i in range(2)
            ]
            assert views["owned"] == (rank,)
            assert views["whole"] == expected
            assert views["again"] == expected

    def test_route_on_a_pool_of_one(self):
        def program(cluster):
            return (tuple(cluster.owned_partitions(1)),
                    cluster.route([[1, 2, 3]])), None

        backend = PoolBackend(timeout=30.0)
        try:
            result, _metrics = backend.run_program(program, 1)
        finally:
            backend.close()
        assert result == ((0,), [[1, 2, 3]])

    def test_worker_exception_surfaces_as_crash_with_traceback(self):
        def program(cluster):
            if cluster.rank == 1:
                raise RuntimeError("worker 1 exploded")
            return None, None

        with pytest.raises(WorkerCrash, match="worker 1 exploded"):
            MultiprocessBackend(timeout=30.0).run_program(program, 2)


class TestOneShotLifecycle:
    """``multiprocess`` is the pool forked for one job: nothing outlives
    the job — no worker process, no pipe, no shared-memory segment —
    whether it returns or raises."""

    @staticmethod
    def _leftovers():
        return (set(multiprocessing.active_children()),
                set(os.listdir("/dev/shm")),
                set(os.listdir("/proc/self/fd")))

    def _assert_nothing_new_since(self, before, env):
        children, segments, fds = self._leftovers()
        assert children - before[0] == set()
        assert segments - before[1] == set()
        # no pipe (or any other descriptor) outlives the job
        assert fds - before[2] == set()
        assert env.backend.pool is None

    def test_nothing_survives_a_successful_collect(self):
        before = self._leftovers()
        env = ExecutionEnvironment(2, backend="multiprocess")
        out = env.from_iterable(range(100)).map(lambda x: x + 1).collect()
        assert sorted(out) == list(range(1, 101))
        self._assert_nothing_new_since(before, env)
        # and the environment forks afresh for its next job
        assert len(env.from_iterable(range(5)).collect()) == 5
        self._assert_nothing_new_since(before, env)

    @pytest.mark.parametrize("crash,message", [
        (lambda x: 1 // 0, "ZeroDivisionError"),    # every rank reports
        (lambda x: os._exit(0), "died without"),    # no rank reports
    ])
    def test_nothing_survives_a_worker_crash(self, crash, message):
        before = self._leftovers()
        env = ExecutionEnvironment(
            2, backend=MultiprocessBackend(timeout=20.0)
        )
        with pytest.raises(WorkerCrash, match=message):
            env.from_iterable(range(100)).map(crash).collect()
        self._assert_nothing_new_since(before, env)

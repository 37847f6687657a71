"""Failure paths of the SPMD worker pool: crashes bounded, never hung.

The regression fixed here: a worker that exits with code 0 *without*
posting a result used to never be counted as dead (the liveness check
required ``exitcode != 0``), so the parent's gather loop spun forever.
Every test in this file is bounded by wall clock.  ``multiprocess`` is
the same pool and the same gather loop, closed after one job (its
lifecycle is checked in test_backends.py).
"""

import os
import time

import pytest

from repro.cluster import PoolBackend, WorkerCrash

#: generous bound for "raised promptly, did not sit out a fabric timeout"
PROMPT_S = 30.0


def _silent_exit(cluster):
    if cluster.rank == 1:
        os._exit(0)  # dies "successfully": exit code 0, no result posted
    return cluster.allgather(cluster.rank), None


def _crash_mid_superstep(cluster):
    # one collective completes, then a rank dies with a real traceback
    total = cluster.allreduce_sum(cluster.rank)
    if cluster.rank == 1:
        raise RuntimeError(f"rank 1 exploded mid-superstep (total={total})")
    return cluster.allgather(total), None


def _stall_peer(cluster):
    # rank 1 returns without ever participating; rank 0's recv must
    # time out instead of blocking forever
    if cluster.rank == 0:
        cluster.endpoint.recv(1, "never-sent")
    return cluster.rank, None


class TestPoolFailurePaths:
    def test_silent_exit_zero_raises_and_breaks_the_pool(self):
        backend = PoolBackend(timeout=20.0)
        try:
            started = time.monotonic()
            with pytest.raises(WorkerCrash, match="died without"):
                backend.run_program(_silent_exit, 2)
            assert time.monotonic() - started < PROMPT_S
            # a dead rank forces teardown; the next job re-forks cleanly
            result, _ = backend.run_program(
                lambda cluster: (cluster.allgather(cluster.rank), None), 2
            )
            assert result == [0, 1]
        finally:
            backend.close()

    def test_mid_superstep_crash_carries_remote_traceback(self):
        # short fabric timeout: the pool waits for *every* rank to
        # report, and rank 0 only reports after its collective times out
        backend = PoolBackend(timeout=3.0)
        try:
            with pytest.raises(WorkerCrash) as exc_info:
                backend.run_program(_crash_mid_superstep, 2)
            message = str(exc_info.value)
            assert "rank 1 exploded mid-superstep" in message
            assert "Traceback" in message
        finally:
            backend.close()

    def test_stalled_peer_times_out_and_pool_survives(self):
        backend = PoolBackend(timeout=2.0)
        try:
            with pytest.raises(WorkerCrash, match="FabricTimeout"):
                backend.run_program(_stall_peer, 2)
            # both ranks reported (one error, one ok): no process died,
            # so the SAME workers serve the next job without re-forking
            pids = backend.pool.worker_pids
            result, _ = backend.run_program(
                lambda cluster: (cluster.allreduce_sum(cluster.rank), None), 2
            )
            assert result == 1
            assert backend.pool.worker_pids == pids
        finally:
            backend.close()

    def test_gather_deadline_bounds_a_worker_that_never_reports(self):
        def sleepy(cluster):
            if cluster.rank == 1:
                time.sleep(60.0)  # alive, but will never report in time
            return cluster.rank, None

        backend = PoolBackend(timeout=1.0)
        try:
            started = time.monotonic()
            with pytest.raises(WorkerCrash, match="gave up waiting"):
                backend.run_program(sleepy, 2)
            assert time.monotonic() - started < PROMPT_S
        finally:
            backend.close()

    def test_no_zombie_workers_after_forced_teardown(self):
        backend = PoolBackend(timeout=20.0)
        with pytest.raises(WorkerCrash):
            backend.run_program(_silent_exit, 2)
        workers = list(backend.pool.workers) if backend.pool else []
        backend.close()
        for worker in workers:
            assert not worker.is_alive()

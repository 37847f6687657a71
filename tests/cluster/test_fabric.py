"""The frame transport: tagged streams, buffering, timeouts, pipe sizes."""

import fcntl
import multiprocessing
import os
import threading
import time

import pytest

from repro.cluster import PoolBackend
from repro.cluster.fabric import PIPE_BYTES, Fabric, FabricTimeout

#: a 4 MiB frame: four times the size of one grown pipe
BIG = 4 * PIPE_BYTES


@pytest.fixture
def fabric():
    ctx = multiprocessing.get_context("fork")
    fab = Fabric(size=2, mp_context=ctx, timeout=2.0)
    yield fab
    fab.close()


def _recv_in_thread(endpoint, source, tag):
    """Start a thread that receives one frame; returns ``(thread, box)``."""
    box = []
    thread = threading.Thread(
        target=lambda: box.append(endpoint.recv(source, tag=tag))
    )
    thread.start()
    return thread, box


class TestEndpoint:
    def test_send_recv_round_trips_a_payload(self, fabric):
        a, b = fabric.endpoint(0), fabric.endpoint(1)
        a.send(1, tag=7, payload={"records": [1, 2, 3]})
        assert b.recv(0, tag=7) == {"records": [1, 2, 3]}

    def test_payloads_are_copies_not_references(self, fabric):
        a, b = fabric.endpoint(0), fabric.endpoint(1)
        payload = [1, 2]
        a.send(1, tag=1, payload=payload)
        received = b.recv(0, tag=1)
        payload.append(3)
        assert received == [1, 2]

    def test_fifo_within_one_stream(self, fabric):
        a, b = fabric.endpoint(0), fabric.endpoint(1)
        for i in range(5):
            a.send(1, tag="s", payload=i)
        assert [b.recv(0, tag="s") for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_out_of_order_tags_are_buffered_not_misdelivered(self, fabric):
        a, b = fabric.endpoint(0), fabric.endpoint(1)
        a.send(1, tag="late", payload="for later")
        a.send(1, tag="now", payload="for now")
        # asking for the second-sent tag first must skip (and keep) the
        # first frame
        assert b.recv(0, tag="now") == "for now"
        assert b.recv(0, tag="late") == "for later"

    def test_self_send_is_rejected(self, fabric):
        a = fabric.endpoint(0)
        with pytest.raises(ValueError):
            a.send(0, tag=1, payload="loop")

    def test_recv_times_out_when_no_peer_sends(self, fabric):
        b = fabric.endpoint(1)
        b.timeout = 0.1
        with pytest.raises(FabricTimeout):
            b.recv(0, tag="never")

    def test_byte_counters_track_serialized_traffic(self, fabric):
        a, b = fabric.endpoint(0), fabric.endpoint(1)
        a.send(1, tag=1, payload=list(range(100)))
        b.recv(0, tag=1)
        assert a.bytes_sent > 0
        assert b.bytes_received == a.bytes_sent


class TestSharedMemoryRings:
    """Frames larger than a pipe, job epochs and teardown (the frames
    that once took the shared-memory rings now ride the pipes too)."""

    def test_frame_bigger_than_a_pipe_round_trips(self, fabric):
        a, b = fabric.endpoint(0), fabric.endpoint(1)
        payload = bytes(range(256)) * (BIG // 256)
        # rank 0 drains its outbox while rank 1 reads
        reader, received = _recv_in_thread(b, 0, "big")
        a.send(1, tag="big", payload=payload)
        a.flush()
        reader.join(timeout=10.0)
        assert not reader.is_alive()
        assert received == [payload]
        assert b.bytes_received == a.bytes_sent > BIG

    def test_ranks_sending_big_frames_to_each_other_both_finish(self):
        # each rank queues far more than its pipe holds before it reads;
        # a sender that blocked on a full pipe would deadlock here
        ctx = multiprocessing.get_context("fork")
        fab = Fabric(size=2, mp_context=ctx, timeout=10.0)
        try:
            ends = fab.endpoint(0), fab.endpoint(1)
            payloads = bytes([1]) * BIG, bytes([2]) * BIG
            received = [None, None]

            def swap(rank):
                ends[rank].send(1 - rank, tag="x", payload=payloads[rank])
                received[rank] = ends[rank].recv(1 - rank, tag="x")
                ends[rank].flush()

            threads = [threading.Thread(target=swap, args=(rank,))
                       for rank in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=15.0)
            assert not any(thread.is_alive() for thread in threads)
            assert received == [payloads[1], payloads[0]]
        finally:
            fab.close()

    def test_stale_frame_bigger_than_a_pipe_is_dropped(self, fabric):
        a, b = fabric.endpoint(0), fabric.endpoint(1)
        a.begin_job(1)
        b.begin_job(1)
        a.send(1, tag="old", payload=bytes(BIG))  # cannot fit one pipe
        b.begin_job(2)  # receiver moves on before the frame lands
        a.begin_job(2)
        a.send(1, tag="fresh", payload="current")
        reader, received = _recv_in_thread(b, 0, "fresh")
        a.flush()
        reader.join(timeout=10.0)
        assert not reader.is_alive()
        # the stale frame was read off the pipe whole and dropped; the
        # next message on the same pipe arrived intact after it
        assert received == ["current"]
        assert b.frames_received == 1
        assert not b._pending

    def test_stale_inline_frames_are_dropped_too(self, fabric):
        a, b = fabric.endpoint(0), fabric.endpoint(1)
        a.begin_job(1)
        b.begin_job(1)
        a.send(1, tag="old", payload="leftover")
        b.begin_job(2)
        a.begin_job(2)
        a.send(1, tag="fresh", payload="current")
        assert b.recv(0, tag="fresh") == "current"
        assert b.frames_received == 1

    def test_begin_job_resets_counters_and_pending(self, fabric):
        a, b = fabric.endpoint(0), fabric.endpoint(1)
        a.send(1, tag="x", payload="y")
        b.recv(0, tag="x")
        assert b.bytes_received > 0
        b.begin_job(5)
        assert (b.bytes_received, b.frames_received, b.bytes_sent,
                b.frames_sent) == (0, 0, 0, 0)
        assert not b._pending

    def test_close_is_idempotent_and_safe_after_partial_use(self, fabric):
        a = fabric.endpoint(0)
        a.send(1, tag="orphan", payload=bytes(BIG))  # never received
        fabric.close()
        fabric.close()  # second close: no-op, no raise


def _pipe_sizes(fab):
    return [fcntl.fcntl(write_fd, fcntl.F_GETPIPE_SZ)
            for _read_fd, write_fd in fab._pipes.values()]


def _kernel_grows_pipes() -> bool:
    """Whether this kernel lets this user grow a pipe to PIPE_BYTES."""
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        return False
    read_fd, write_fd = os.pipe()
    try:
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
        return True
    except OSError:
        return False
    finally:
        os.close(read_fd)
        os.close(write_fd)


@pytest.mark.skipif(not _kernel_grows_pipes(),
                    reason="the kernel refuses to grow pipes")
class TestPipeCapacity:
    """Pipes are grown once, when the fabric is made; no process runs."""

    @staticmethod
    def _sizes(size):
        fab = Fabric(size=size, mp_context=multiprocessing.get_context(
            "fork"), timeout=1.0)
        try:
            return _pipe_sizes(fab)
        finally:
            fab.close()

    def test_two_workers_get_one_mebibyte_pipes(self):
        assert self._sizes(2) == [1 << 20] * 2

    def test_eight_workers_share_at_most_sixteen_mebibytes(self):
        sizes = self._sizes(8)
        assert len(sizes) == 8 * 7
        assert sum(sizes) <= 16 << 20
        # never below the kernel's default
        assert min(sizes) >= 1 << 16


#: one stream per collective per peer: the allreduce tags run 1..ROUNDS
ROUNDS = 1_000



def _pending_after_allreduces(cluster):
    for _ in range(ROUNDS):
        cluster.allreduce_sum(1)
    # streams of finished collectives only: a fast peer's next frame
    # may already wait under a later tag
    leftover = [key for key in cluster.endpoint._pending if key[1] <= ROUNDS]
    return cluster.allgather(leftover), None


def _flood_record(source, i):
    """About 270 pickled bytes: 5,000 of them overflow a 1 MiB pipe."""
    return source, i, f"{i:0256d}"


def _flood(records):
    """Every rank sends each peer a ``records``-record frame at once."""
    def program(cluster):
        frames = [
            [] if target == cluster.rank
            else [_flood_record(cluster.rank, i) for i in range(records)]
            for target in range(cluster.size)
        ]
        out = cluster.route(frames)
        return cluster.allgather(out[cluster.rank]), None
    return program


def _flood_one_way(cluster):
    # rank 0 floods rank 1, which starts reading late, and then has
    # nothing left to wait for: only flushing its outbox before it
    # reports the job done lets rank 1 finish
    if cluster.rank == 1:
        time.sleep(0.5)
    records = ([_flood_record(0, i) for i in range(20_000)]
               if cluster.rank == 0 else [])
    out = cluster.route([[], records])
    return len(out[cluster.rank]), None


class TestPoolTraffic:
    """The transport between real forked workers."""

    @staticmethod
    def _run(program, size=2):
        backend = PoolBackend(timeout=10.0)
        try:
            result, _metrics = backend.run_program(program, size)
        finally:
            backend.close()
        return result

    def test_drained_streams_leave_no_buffer_behind(self):
        assert self._run(_pending_after_allreduces) == [[], []]

    def test_a_rank_done_early_still_delivers_what_it_queued(self):
        assert self._run(_flood_one_way) == 0

    # two ranks as in a pool job; three is more workers than cores
    @pytest.mark.parametrize("size,records", [(2, 20_000), (3, 5_000)])
    def test_ranks_flooding_each_other_at_once_all_finish(self, size,
                                                          records):
        # each rank queues far more than a pipe holds before it reads:
        # a sender that blocked on a full pipe would deadlock here
        gathered = self._run(_flood(records), size)
        assert gathered == [
            [_flood_record(source, i) for source in range(size)
             if source != rank for i in range(records)]
            for rank in range(size)
        ]

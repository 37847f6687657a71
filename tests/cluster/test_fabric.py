"""The frame transport: tagged streams, buffering, timeouts, shm rings."""

import multiprocessing
import threading
import time

import pytest

from repro.cluster import PoolBackend
from repro.cluster.fabric import (
    SHM_THRESHOLD_BYTES,
    Fabric,
    FabricTimeout,
)
from repro.common import columns as columns_mod

#: the two frame encodings that share the ring-or-inline routine
ENCODINGS = ("pickled", "columnar")


def _rows(n):
    """``n`` two-int records, 16 payload bytes each as columns and
    about 12 pickled (both ints need four bytes)."""
    return [(i + (1 << 20), i + (1 << 30)) for i in range(n)]


def _post(endpoint, tag, rows, encoding):
    """Send ``rows`` to rank 1 as one frame; returns its wire bytes."""
    before = endpoint.bytes_sent
    if encoding == "pickled":
        endpoint.send(1, tag=tag, payload=rows)
    else:
        _arity, cols = columns_mod.columnarize(rows)
        header, buffers = columns_mod.encode_frame(cols, len(rows), None)
        endpoint.send_columns(1, tag=tag, header=header, buffers=buffers)
    return endpoint.bytes_sent - before


def _take(endpoint, tag):
    """Receive rank 0's frame as rows, whichever encoding it took."""
    payload = endpoint.recv(0, tag=tag)
    if isinstance(payload, tuple) and payload[0] == "cols":
        length, cols, _fields = columns_mod.decode_frame(*payload[1:])
        return columns_mod.materialize_rows(cols, length)
    return payload


@pytest.fixture
def fabric():
    ctx = multiprocessing.get_context("fork")
    fab = Fabric(size=2, mp_context=ctx, timeout=2.0)
    yield fab
    fab.close()


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
    """Frames above the threshold travel through shared-memory slots."""

    @pytest.fixture
    def small_fabric(self):
        # tiny slots so modest payloads exercise multi-slot spanning
        ctx = multiprocessing.get_context("fork")
        fab = Fabric(size=2, mp_context=ctx, timeout=2.0,
                     slot_bytes=4096, slots_per_worker=4)
        yield fab
        fab.close()

    @staticmethod
    def _endpoints(fab):
        # drop the shm threshold so the kilobyte-scale payloads these
        # tests use take the shared-memory path, not the inline one
        a, b = fab.endpoint(0), fab.endpoint(1)
        a.shm_threshold = b.shm_threshold = 1024
        return a, b

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_big_payload_round_trips_through_shm(self, fabric, encoding):
        a, b = fabric.endpoint(0), fabric.endpoint(1)
        rows = _rows(5000)  # well past the threshold in either encoding
        before = a._ring.free_slots
        assert _post(a, "big", rows, encoding) >= SHM_THRESHOLD_BYTES
        assert a._ring.free_slots < before  # slots in flight
        assert _take(b, "big") == rows
        assert b.bytes_received == a.bytes_sent
        # only raw column buffers count as zero-copied
        assert a.bytes_zero_copied == \
            (16 * len(rows) if encoding == "columnar" else 0)

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_small_payload_stays_inline(self, fabric, encoding):
        a, b = fabric.endpoint(0), fabric.endpoint(1)
        before = a._ring.free_slots
        _post(a, "small", _rows(3), encoding)
        assert a._ring.free_slots == before  # no slot touched
        assert _take(b, "small") == _rows(3)
        assert a.bytes_zero_copied == 0

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_frame_spans_multiple_slots(self, small_fabric, encoding):
        a, b = self._endpoints(small_fabric)
        rows = _rows(800)  # 9.6-12.8 KB over 4 KB slots
        before = a._ring.free_slots
        _post(a, "span", rows, encoding)
        assert before - a._ring.free_slots >= 3
        assert _take(b, "span") == rows

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_oversize_frame_falls_back_inline(self, small_fabric, encoding):
        a, b = self._endpoints(small_fabric)
        rows = _rows(4000)  # larger than the whole 4-slot ring
        before = a._ring.free_slots
        assert _post(a, "huge", rows, encoding) > 4 * 4096
        assert a._ring.free_slots == before  # inline path, no slots
        assert _take(b, "huge") == rows
        assert a.bytes_zero_copied == 0

    def test_acks_recycle_slots_across_repeated_sends(self, small_fabric):
        # 8 sends through a 4-slot ring only work if receiving acks the
        # slots back; the interleaved recv drives that recycling
        a, b = self._endpoints(small_fabric)
        payload = bytes(6000)  # 2 slots per frame
        for i in range(8):
            a.send(1, tag=i, payload=payload)
            assert b.recv(0, tag=i) == payload
        # every ack is already in rank 0's pipe: waiting takes them in
        a._await(lambda: a._ring.free_slots == len(a._ring) or None,
                 "acks")

    def test_sender_blocks_then_raises_when_no_acks_return(self,
                                                           small_fabric):
        a, _ = self._endpoints(small_fabric)
        a.timeout = 0.2
        payload = bytes(12_000)  # 3 of the 4 slots
        a.send(1, tag=0, payload=payload)
        # nobody is receiving, so no acks: the second send cannot get
        # slots and must time out rather than deadlock silently
        with pytest.raises(FabricTimeout):
            a.send(1, tag=1, payload=payload)

    def test_stale_epoch_frames_are_dropped_but_acked(self, small_fabric):
        a, b = self._endpoints(small_fabric)
        a.begin_job(1)
        b.begin_job(1)
        a.send(1, tag="old", payload=bytes(6000))  # epoch-1 frame, shm path
        b.begin_job(2)  # receiver moves on before the frame lands
        with pytest.raises(FabricTimeout):
            b.timeout = 0.2
            b.recv(0, tag="old")
        assert b.frames_received == 0  # dropped, not misdelivered
        # ...but the slots were still acked back to the sender
        a._await(lambda: a._ring.free_slots == len(a._ring) or None,
                 "acks")

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

    def test_shared_memory_can_be_disabled(self):
        ctx = multiprocessing.get_context("fork")
        fab = Fabric(size=2, mp_context=ctx, timeout=2.0,
                     use_shared_memory=False)
        try:
            a, b = fab.endpoint(0), fab.endpoint(1)
            assert a._ring is None
            payload = list(range(50_000))
            # more than one pipe buffer: rank 0 drains its outbox while
            # rank 1 reads
            received = []
            reader = threading.Thread(
                target=lambda: received.append(b.recv(0, tag="big"))
            )
            reader.start()
            a.send(1, tag="big", payload=payload)
            a.flush()
            reader.join(timeout=10.0)
            assert not reader.is_alive()
            assert received == [payload]
        finally:
            fab.close()

    def test_close_is_idempotent_and_safe_after_partial_use(self,
                                                            small_fabric):
        a, _ = self._endpoints(small_fabric)
        a.send(1, tag="orphan", payload=bytes(6000))  # never received
        small_fabric.close()
        small_fabric.close()  # second close: no-op, no raise


#: one stream per collective per peer: the allreduce tags run 1..ROUNDS
ROUNDS = 1_000



def _pending_after_allreduces(cluster):
    for _ in range(ROUNDS):
        cluster.allreduce_sum(1)
    # streams of finished collectives only: a fast peer's next frame
    # may already wait under a later tag
    leftover = [key for key in cluster.endpoint._pending if key[1] <= ROUNDS]
    return cluster.allgather(leftover), None


def _flood(records):
    """Every rank sends each peer ``records`` one-record chunks at once."""
    def program(cluster):
        frames = [
            [] if target == cluster.rank
            else [(cluster.rank, i) for i in range(records)]
            for target in range(cluster.size)
        ]
        out = cluster.route(frames, batch_size=1)
        return cluster.allgather(out[cluster.rank]), None
    return program


def _flood_one_way(cluster):
    # rank 0 floods rank 1, which starts reading late, and then has
    # nothing left to wait for: only flushing its outbox before it
    # reports the job done lets rank 1 finish (its stream's chunk count
    # is verified on arrival)
    if cluster.rank == 1:
        time.sleep(0.5)
    records = [(0, i) for i in range(20_000)] if cluster.rank == 0 else []
    out = cluster.route([[], records], batch_size=1)
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
            [(source, i) for source in range(size) if source != rank
             for i in range(records)]
            for rank in range(size)
        ]

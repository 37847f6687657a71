"""Cluster contexts: where one piece of code runs, and who its peers are.

The same executor / driver / master code runs in two settings, which
differ in *which partitions a context owns*:

* the **local** setting — one process simulates all ``parallelism``
  partitions (``LOCAL``, a :class:`LocalCluster`): it owns every
  partition, collectives are identities and datasets at rest hold every
  partition's records;
* the **SPMD** setting — one forked worker process per partition
  (:class:`WorkerCluster`): rank ``r`` owns partition ``r`` only,
  datasets at rest are *localized* (the length-``parallelism`` partition
  list has only slot ``rank`` populated), and cross-partition movement
  happens through real collectives over the fabric.

Callers stay ignorant of the setting by asking two questions only:
:meth:`~ClusterContext.owned_partitions` ("which slots do I compute?")
and :meth:`~ClusterContext.route` ("deliver what I produced for
partition *t* to whoever owns *t*").  There is no "am I local?"
attribute to fork on.

**One data-movement path**, three layers, each written once: a caller
*frames* the partitions it owns into ``frames[target]``
(:func:`repro.runtime.channels.frame`, the microstep buffers, the Pregel
outboxes); ``route`` hands the frames to :meth:`~ClusterContext.exchange`,
which streams each to its peer as bounded chunks — a pickled row run
``("c", records)`` or a raw column frame ``("cols", header, buffers)`` —
closed by an ``("e", n_chunks)`` terminator; and the fabric endpoint
posts each chunk through its shared-memory ring or inline
(:mod:`repro.cluster.fabric`).

The collectives are designed so that the SPMD execution is *bitwise
identical* to the simulator in every record ordering: ``exchange``
returns frames indexed by source rank, and ``route`` and every merge
concatenate in ascending rank order — exactly the partition-scan order
a context that owns every partition produces.  That property is what
lets the differential audit hold the pool backends to identical logical
counters and results.
"""

from __future__ import annotations

import pickle

from repro.common import columns as columns_mod
from repro.common.batch import RecordBatch

#: how many records the row-run sizer pickles to estimate bytes/record
_SIZE_SAMPLE = 32


def _estimate_record_bytes(run) -> int:
    """Per-record pickled size, estimated from an evenly spaced sample.

    Replaces the old pickle-the-whole-run size probe: one small sample
    pickle instead of serializing every record twice.
    """
    if len(run) <= _SIZE_SAMPLE:
        sample = run
    else:
        sample = run[:: len(run) // _SIZE_SAMPLE][:_SIZE_SAMPLE]
    blob = pickle.dumps(sample, protocol=pickle.HIGHEST_PROTOCOL)
    return max(1, len(blob) // len(sample))


class ClusterContext:
    """Interface shared by the local simulator and SPMD workers."""

    rank: int
    size: int

    @property
    def is_coordinator(self) -> bool:
        return self.rank == 0

    @property
    def bytes_sent(self) -> int:
        """Serialized bytes this context has put on the wire so far.

        The local setting never serializes, so the base reading is 0;
        instrumentation samples this before/after a collective to
        attribute wire bytes to the enclosing superstep.
        """
        return 0

    @property
    def columns_zero_copied(self) -> int:
        """Fixed-width column buffers shipped as raw shm memcpy (no
        pickle on the payload path); always 0 in the local setting."""
        return 0

    @property
    def bytes_zero_copied(self) -> int:
        """Payload bytes of those zero-copied column buffers."""
        return 0

    def owned_partitions(self, parallelism: int):
        raise NotImplementedError

    def localize(self, partitions):
        """Restrict a full partition list to the slots this context owns."""
        raise NotImplementedError

    def exchange(self, frames, batch_size=None, max_frame_bytes=None,
                 columnar=True, key_fields=None):
        """All-to-all: send ``frames[t]`` to rank ``t``; return the frames
        received, indexed by source rank (own frame included in place).

        The keywords shape the wire framing only (chunk bounds, see
        :meth:`WorkerCluster.exchange`), never the reassembled result;
        ``key_fields`` tags column frames so receivers can rebuild
        keyed batches without re-extracting.  ``columnar`` has no
        effect; ``benchmarks/perf/probes.py`` still passes it."""
        raise NotImplementedError

    def route(self, frames, **framing):
        """Deliver ``frames[t]`` — what this context produced for
        partition ``t`` — to ``t``'s owner; returns a partition list.

        Every *owned* slot of the result holds all contexts' frames for
        it, concatenated in ascending source-rank order; slots owned by
        a peer are empty.  ``framing`` is passed to :meth:`exchange`."""
        raise NotImplementedError

    def storage_view(self, session):
        """The spill session this context's operators write under."""
        raise NotImplementedError

    def allreduce_sum(self, value):
        raise NotImplementedError

    def allgather(self, value):
        """Every rank's ``value``, indexed by rank."""
        raise NotImplementedError

    def merge_global(self, partitions):
        """Flatten a dataset at rest into one global record list, in
        partition order, visible to every rank."""
        raise NotImplementedError


class LocalCluster(ClusterContext):
    """The in-process setting: one context owns every partition."""

    rank = 0
    size = 1

    def owned_partitions(self, parallelism):
        return range(parallelism)

    def localize(self, partitions):
        return partitions

    def exchange(self, frames, **framing):
        raise RuntimeError("the local cluster has no peers to exchange with")

    def route(self, frames, **framing):
        # the only source, and the owner of every target
        return frames

    def storage_view(self, session):
        return session

    def allreduce_sum(self, value):
        return value

    def allgather(self, value):
        return [value]

    def merge_global(self, partitions):
        from repro.runtime import channels
        return channels.merge(partitions)


#: the singleton local context; ``ExecutionEnvironment`` and the engine
#: drivers default to it
LOCAL = LocalCluster()


class WorkerCluster(ClusterContext):
    """One SPMD worker's context: rank ``r`` of ``size`` forked peers.

    Collective calls are matched across workers by a monotonically
    increasing operation tag; since every worker executes the same
    deterministic program, the n-th collective on one rank pairs with
    the n-th on every other — lockstep without a coordinator.
    """

    def __init__(self, endpoint, size: int):
        self.endpoint = endpoint
        self.rank = endpoint.rank
        self.size = size
        self._op_seq = 0

    def _next_tag(self) -> int:
        self._op_seq += 1
        return self._op_seq

    @property
    def bytes_sent(self) -> int:
        return self.endpoint.bytes_sent

    @property
    def columns_zero_copied(self) -> int:
        return self.endpoint.columns_zero_copied

    @property
    def bytes_zero_copied(self) -> int:
        return self.endpoint.bytes_zero_copied

    def owned_partitions(self, parallelism):
        return (self.rank,)

    def localize(self, partitions):
        return [
            list(part) if index == self.rank else []
            for index, part in enumerate(partitions)
        ]

    def storage_view(self, session):
        # each worker spills under its own subdirectory of the parent
        # session, so parent cleanup sweeps workers that died mid-spill
        return session.worker_view(self.rank)

    # ------------------------------------------------------------------
    # collectives

    def exchange(self, frames, batch_size=None, max_frame_bytes=None,
                 columnar=True, key_fields=None):
        """All-to-all exchange as one chunk stream per peer.

        Each target frame is split into runs of ``batch_size`` records
        (``None``: one run) and the stream is closed by an
        ``("e", n_chunks)`` terminator the receiver verifies.  Chunks of
        one ``(source, tag)`` stream arrive in FIFO order, so reassembly
        by concatenation reproduces the frame exactly.  A run travels in
        one of two encodings, sized against ``max_frame_bytes`` without
        ever pickling a probe copy:

        * **column** runs (every column of the chunk is fixed-width)
          know their payload size exactly from
          ``rows * sum(itemsize)``, so oversize chunks are re-split by
          row-count arithmetic and ship as raw column buffers
          (:meth:`~repro.cluster.fabric.Endpoint.send_columns` — zero
          payload pickling on the shm path);
        * **row** runs are sliced up front from a sampled per-record
          pickle estimate and each slice is pickled exactly once.  An
          estimate miss only makes a frame land off the target size —
          the fabric ships any blob (multi-slot shm or inline), so the
          bound is a framing target, not a correctness limit.

        ``columnar`` has no effect; ``benchmarks/perf/probes.py`` still
        passes it.
        """
        if len(frames) != self.size:
            raise ValueError(
                f"exchange needs one frame per worker ({self.size}), "
                f"got {len(frames)}"
            )
        tag = self._next_tag()
        for target, frame in enumerate(frames):
            if target == self.rank:
                continue
            sent = 0
            if len(frame):
                for chunk in RecordBatch.wrap(frame, key_fields).split(
                    batch_size
                ):
                    sent += self._send_chunk(
                        target, tag, chunk, max_frame_bytes
                    )
            self.endpoint.send(target, tag, ("e", sent))
        return [
            list(frames[source]) if source == self.rank
            else self._recv_stream(source, tag)
            for source in range(self.size)
        ]

    def _send_chunk(self, target, tag, chunk, max_frame_bytes) -> int:
        """Ship one :class:`RecordBatch` chunk, columnar when possible.

        All-fixed-width chunks go out as raw column buffers; their exact
        payload size is linear in the row count, so an oversize chunk is
        re-split arithmetically — no probe serialization.  Chunks with
        any object column fall back to the pickled row run.
        """
        layout = chunk.columns()
        if layout is not None:
            length, cols = layout
            nbytes = columns_mod.frame_nbytes(cols, length)
            if nbytes is not None:
                if (
                    max_frame_bytes is not None
                    and nbytes > max_frame_bytes
                    and length > 1
                ):
                    pieces = -(-nbytes // max_frame_bytes)
                    rows = max(1, -(-length // pieces))
                    if rows < length:
                        return sum(
                            self._send_chunk(target, tag, sub, max_frame_bytes)
                            for sub in chunk.split(rows)
                        )
                header, buffers = columns_mod.encode_frame(
                    cols, length, chunk.key_fields
                )
                self.endpoint.send_columns(target, tag, header, buffers)
                return 1
        return self._send_run(target, tag, chunk.records, max_frame_bytes)

    def _send_run(self, target, tag, run, max_frame_bytes) -> int:
        rows = len(run)
        if max_frame_bytes is not None and rows > 1:
            rows = min(
                rows, max(1, max_frame_bytes // _estimate_record_bytes(run))
            )
        for i in range(0, len(run), rows):
            self.endpoint.send_raw(target, tag, pickle.dumps(
                ("c", run[i:i + rows]), protocol=pickle.HIGHEST_PROTOCOL
            ))
        return -(-len(run) // rows)

    def _recv_stream(self, source, tag) -> list:
        records: list = []
        chunks = 0
        while True:
            message = self.endpoint.recv(source, tag)
            kind = message[0]
            if kind == "e":
                if message[1] != chunks:
                    raise RuntimeError(
                        f"chunked exchange stream from worker {source} "
                        f"announced {message[1]} chunks but {chunks} arrived"
                    )
                return records
            if kind == "cols":
                length, cols, _key_fields = columns_mod.decode_frame(
                    message[1], message[2]
                )
                records.extend(columns_mod.materialize_rows(cols, length))
            else:
                records.extend(message[1])
            chunks += 1

    def route(self, frames, **framing):
        out = [[] for _ in frames]
        out[self.rank] = [
            record
            for frame in self.exchange(frames, **framing)
            for record in frame
        ]
        return out

    def allgather(self, value):
        tag = self._next_tag()
        for target in range(self.size):
            if target != self.rank:
                self.endpoint.send(target, tag, value)
        return [
            value if source == self.rank else self.endpoint.recv(source, tag)
            for source in range(self.size)
        ]

    def allreduce_sum(self, value):
        return sum(self.allgather(value))

    def merge_global(self, partitions):
        merged = []
        for records in self.allgather(list(partitions[self.rank])):
            merged.extend(records)
        return merged

    # ------------------------------------------------------------------
    # point-to-point (used by the async token ring)

    def send_to(self, target: int, payload, tag: str = "p2p"):
        self.endpoint.send(target, tag, payload)

    def recv_from(self, source: int, tag: str = "p2p"):
        return self.endpoint.recv(source, tag)

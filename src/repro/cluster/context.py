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
which streams each to its peer as bounded chunks — a row run
``("c", records)`` or a column frame ``("cols", header, buffers)`` —
the last of which rides in the ``("e", n_chunks, chunk)`` terminator
(an empty frame is ``("e", 0)``); and the fabric endpoint writes each
as one message on the per-pair pipe to the peer
(:mod:`repro.cluster.fabric`).
Where data already sits on the partitions its consumer needs — the
staged delta of a superstep, read on the solution key — the plan says
FORWARD, and a forward ship takes no ``route`` at all
(:func:`repro.runtime.channels.ship`).

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


def _extend(records: list, chunk) -> None:
    """Append one received chunk's records, whichever encoding it took."""
    if chunk[0] == "cols":
        length, cols, _key_fields = columns_mod.decode_frame(
            chunk[1], chunk[2]
        )
        records.extend(columns_mod.materialize_rows(cols, length))
    else:
        records.extend(chunk[1])


def _encode(chunk, max_frame_bytes) -> list:
    """One :class:`RecordBatch` chunk as wire chunks, columnar when it can.

    A chunk whose columns are all fixed-width is ``("cols", header,
    buffers)``; its exact payload size is linear in the row count, so
    an oversize chunk is re-split arithmetically — no probe
    serialization.  Any other chunk is row runs ``("c", records)``,
    sliced up front from a sampled per-record pickle estimate.  An
    estimate miss only makes a chunk land off the target size: the bound
    is a framing target, not a correctness limit.
    """
    layout = chunk.columns()
    if layout is not None:
        length, cols = layout
        nbytes = columns_mod.frame_nbytes(cols, length)
        if nbytes is not None:
            if (max_frame_bytes is not None and nbytes > max_frame_bytes
                    and length > 1):
                pieces = -(-nbytes // max_frame_bytes)
                rows = max(1, -(-length // pieces))
                if rows < length:
                    return [wire for sub in chunk.split(rows)
                            for wire in _encode(sub, max_frame_bytes)]
            header, buffers = columns_mod.encode_frame(
                cols, length, chunk.key_fields
            )
            return [("cols", header, [bytes(b) for b in buffers])]
    run = chunk.records
    rows = len(run)
    if max_frame_bytes is not None and rows > 1:
        rows = min(
            rows, max(1, max_frame_bytes // _estimate_record_bytes(run))
        )
    return [("c", run[i:i + rows]) for i in range(0, len(run), rows)]


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
        (``None``: one run), each run is encoded by :func:`_encode`
        into chunks of about ``max_frame_bytes``, and the stream's last
        chunk rides in the ``("e", n_chunks, chunk)`` terminator the
        receiver verifies.  Chunks of one ``(source, tag)`` stream
        arrive in FIFO order, so reassembly by concatenation reproduces
        the frame exactly.

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
            if target != self.rank:
                self._send_frame(target, tag, frame, batch_size,
                                 max_frame_bytes, key_fields)
        return [
            list(frames[source]) if source == self.rank
            else self._recv_stream(source, tag)
            for source in range(self.size)
        ]

    def _send_frame(self, target, tag, frame, batch_size, max_frame_bytes,
                    key_fields) -> None:
        """Stream one peer's frame: its chunks, the last one riding in the
        ``("e", n_chunks, chunk)`` terminator (``("e", 0)`` when empty)."""
        chunks = []
        if len(frame):
            for batch in RecordBatch.wrap(frame, key_fields).split(batch_size):
                chunks.extend(_encode(batch, max_frame_bytes))
        send = self.endpoint.send
        for chunk in chunks[:-1]:
            send(target, tag, chunk)
        send(target, tag,
             ("e", len(chunks), chunks[-1]) if chunks else ("e", 0))

    def _recv_stream(self, source, tag) -> list:
        records: list = []
        chunks = 0
        while True:
            message = self.endpoint.recv(source, tag)
            if message[0] == "e":
                if len(message) == 3:  # the stream's only chunk rode along
                    _extend(records, message[2])
                    chunks += 1
                if message[1] != chunks:
                    raise RuntimeError(
                        f"chunked exchange stream from worker {source} "
                        f"announced {message[1]} chunks but {chunks} arrived"
                    )
                return records
            _extend(records, message)
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

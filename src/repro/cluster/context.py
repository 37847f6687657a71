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
which sends each peer its frame's record list as one payload; and the
fabric endpoint pickles that payload once and writes it as one message
on the per-pair pipe to the peer (:mod:`repro.cluster.fabric`).
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

from repro.common.batch import RecordBatch


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

    def exchange(self, frames, batch_size=None, columnar=True,
                 key_fields=None):
        """All-to-all: send ``frames[t]`` to rank ``t``; return the frames
        received, indexed by source rank (own frame included in place).

        ``batch_size``, ``columnar`` and ``key_fields`` have no effect:
        each frame travels whole (see :meth:`WorkerCluster.exchange`);
        ``benchmarks/perf/probes.py`` still passes them."""
        raise NotImplementedError

    def route(self, frames):
        """Deliver ``frames[t]`` — what this context produced for
        partition ``t`` — to ``t``'s owner; returns a partition list.

        Every *owned* slot of the result holds all contexts' frames for
        it, concatenated in ascending source-rank order; slots owned by
        a peer are empty."""
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

    def route(self, frames):
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

    def exchange(self, frames, batch_size=None, columnar=True,
                 key_fields=None):
        """All-to-all exchange, one message per peer.

        Each peer's frame — a record list, or a :class:`RecordBatch`
        whose record list is sent — is one fabric message; the pipe's
        length prefix delivers it whole, so there is nothing to
        reassemble.  The channel already framed the records in
        ``batch_size`` chunks, so the keywords have no effect;
        ``benchmarks/perf/probes.py`` still passes them.
        """
        if len(frames) != self.size:
            raise ValueError(
                f"exchange needs one frame per worker ({self.size}), "
                f"got {len(frames)}"
            )
        tag = self._next_tag()
        for target, frame in enumerate(frames):
            if target != self.rank:
                self.endpoint.send(target, tag,
                                   RecordBatch.wrap(frame).records)
        return [
            list(frames[source]) if source == self.rank
            else self.endpoint.recv(source, tag)
            for source in range(self.size)
        ]

    def route(self, frames):
        out = [[] for _ in frames]
        out[self.rank] = [
            record
            for frame in self.exchange(frames)
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

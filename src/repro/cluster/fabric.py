"""Inter-worker transport: one pipe per ordered worker pair.

A :class:`Fabric` is created by the parent process *before* forking: it
owns one pipe per ordered worker pair and a results queue back to the
parent.  Because the pipes are made pre-fork, every worker inherits the
same descriptors; pipe ``(s, t)`` has exactly one writer (rank ``s``)
and one reader (rank ``t``), so no lock guards it.

**Messages.**  Every frame is one message ``("f", epoch, source, tag,
blob)``, ``blob`` being the pickled payload.  A message is pickled,
prefixed with its length and written by the sending thread itself — no
feeder thread, no cross-process lock.  Each pipe is grown to
:data:`PIPE_BYTES` where the kernel allows, so a superstep's frames
usually fit the pipe whole and the receiver takes them in a few reads.

**Never blocking.**  Writes never block.  What the pipe cannot take at
once waits, in order, in a per-target outbox that drains whenever the
endpoint waits, so two ranks that flood each other at once both make
progress.  A waiting endpoint ``poll``s its inbound pipes and its
non-empty outboxes together, and handles *everything* that arrives —
early frames from fast peers are buffered — so communication
progresses while the worker computes.

**Job epochs.**  Persistent pool workers run many jobs over one fabric.
Every frame carries the sender's job epoch; frames from a superseded
job (a crashed peer's leftovers) are dropped on receipt instead of
being misdelivered into the next job's tag space.

Frames are tagged ``(source, tag)`` so that out-of-order arrivals (a
fast peer racing ahead to the next collective) are buffered rather than
misdelivered; within one ``(source, tag)`` stream FIFO order is
preserved end to end, because a pipe and its outbox are FIFO and the
receive buffer is a deque per stream.
"""

from __future__ import annotations

import fcntl
import os
import pickle
import select
import struct
import time
from collections import deque


class FabricTimeout(RuntimeError):
    """A worker waited too long for a peer's frame (peer likely dead)."""


#: the length prefix of one message on a pipe
_LENGTH = struct.Struct(">Q")

#: a default Linux pipe's capacity, and how much one ``os.read`` takes
_DEFAULT_PIPE_BYTES = 1 << 16

#: the capacity one pipe is grown to, and what all of a fabric's pipes
#: may hold together (well under Linux's default per-user soft limit
#: of 64 MiB of pipe buffers)
PIPE_BYTES = 1 << 20
_FABRIC_PIPE_BYTES = 16 << 20


def _pipe_bytes(size: int) -> int:
    """The capacity each of a ``size``-worker fabric's pipes asks for.

    :data:`PIPE_BYTES`, shrunk to a power of two (the kernel rounds a
    request up to one) so that all ``size * (size - 1)`` pipes together
    stay within 16 MiB, and never below the 64 KiB default.
    """
    capacity = PIPE_BYTES
    pairs = size * (size - 1)
    while (capacity > _DEFAULT_PIPE_BYTES
           and capacity * pairs > _FABRIC_PIPE_BYTES):
        capacity //= 2
    return capacity


#: ``F_SETPIPE_SZ`` exists on Linux only
_SETPIPE_SZ = getattr(fcntl, "F_SETPIPE_SZ", None)


def grow_pipe(fd: int, capacity: int) -> None:
    """Ask the kernel for a ``capacity``-byte pipe; where it refuses
    (another OS, a lowered ``pipe-max-size``, the user's pipe quota
    spent), the pipe keeps its default size."""
    if _SETPIPE_SZ is None:
        return
    try:
        fcntl.fcntl(fd, _SETPIPE_SZ, capacity)
    except OSError:
        pass


class Fabric:
    """Parent-side factory for one worker cluster's transport."""

    def __init__(self, size: int, mp_context, timeout: float = 120.0):
        self.size = size
        self.timeout = timeout
        self._closed = False
        #: ``(source, target) -> (read fd, write fd)``, both non-blocking
        self._pipes: dict[tuple, tuple] = {}
        capacity = _pipe_bytes(size)
        try:
            for source in range(size):
                for target in range(size):
                    if source != target:
                        read_fd, write_fd = os.pipe()
                        self._pipes[(source, target)] = (read_fd, write_fd)
                        os.set_blocking(read_fd, False)
                        os.set_blocking(write_fd, False)
                        grow_pipe(write_fd, capacity)
        except OSError:
            self._close_pipes()
            raise
        #: workers report completion payloads / errors here
        self.results = mp_context.Queue()

    def endpoint(self, rank: int) -> "Endpoint":
        inbound = {s: fds[0] for (s, t), fds in self._pipes.items()
                   if t == rank}
        outbound = {t: fds[1] for (s, t), fds in self._pipes.items()
                    if s == rank}
        return Endpoint(rank, inbound, outbound, self.timeout)

    def _close_pipes(self):
        for fds in self._pipes.values():
            for fd in fds:
                try:
                    os.close(fd)
                except OSError:  # pragma: no cover - already closed
                    pass
        self._pipes.clear()

    def close(self):
        """Tear down the pipes and the results queue.

        Idempotent, and safe after a *partial* teardown — crashed
        workers, pipes with unread frames — so crash-handling paths can
        always call it.
        """
        if self._closed:
            return
        self._closed = True
        self._close_pipes()
        self.results.cancel_join_thread()
        self.results.close()
        # the parent only reads results, so no feeder thread of its own
        # closes the queue's pipe: both ends close here
        self.results._reader.close()
        self.results._writer.close()


class Endpoint:
    """One worker's view of the fabric: tagged send/recv of frames."""

    def __init__(self, rank: int, inbound: dict, outbound: dict,
                 timeout: float):
        self.rank = rank
        self.timeout = timeout
        #: write end of the pipe to each peer, and what it could not
        #: take yet (whole wire messages, the head possibly cut short)
        self._outbound = outbound
        self._outboxes = {target: deque() for target in outbound}
        self._target_of = {fd: target for target, fd in outbound.items()}
        #: read end of the pipe from each peer, and the bytes read from
        #: it that do not yet form a whole message
        self._inbound = {fd: bytearray() for fd in inbound.values()}
        self._poller = select.poll()
        for fd in self._inbound:
            self._poller.register(fd, select.POLLIN)
        #: frames that arrived before anyone asked for them, per stream
        #: (a drained stream's key is deleted)
        self._pending: dict[tuple, deque] = {}
        self.begin_job(0)

    def telemetry_probe(self) -> dict:
        """Gauge samples for the registry's superstep-boundary poll."""
        return {
            "fabric.pending_frames":
                sum(len(bucket) for bucket in self._pending.values()),
        }

    def begin_job(self, epoch) -> None:
        """Reset per-job state before running a new job on this endpoint.

        Counters restart at zero, buffered frames from any previous
        (possibly aborted) job are discarded, and the epoch advances so
        in-flight leftovers are dropped on receipt.  Outboxes and partly
        read pipe bytes carry over: a pipe is one ordered byte stream,
        and cutting a message in half would garble every later one.
        """
        #: the current job's epoch; frames from other epochs are dropped
        self.epoch = epoch
        self._pending.clear()
        self.bytes_sent = 0
        self.bytes_received = 0
        self.frames_sent = 0
        self.frames_received = 0

    # ------------------------------------------------------------------
    # sending

    def send(self, target: int, tag, payload):
        """Queue ``payload`` for stream ``(self.rank, tag)`` at ``target``;
        never blocks."""
        if target == self.rank:
            raise ValueError("a worker does not send frames to itself")
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        self.bytes_sent += len(blob)
        self.frames_sent += 1
        data = pickle.dumps(("f", self.epoch, self.rank, tag, blob),
                            protocol=pickle.HIGHEST_PROTOCOL)
        outbox = self._outboxes[target]
        if not outbox:
            self._poller.register(self._outbound[target], select.POLLOUT)
        outbox.append(_LENGTH.pack(len(data)) + data)
        self._flush(target)

    def _flush(self, target: int) -> None:
        """Write ``target``'s outbox until it is empty or the pipe full;
        a pipe that is waited on for room stays registered with the
        poller until its outbox is empty."""
        outbox = self._outboxes[target]
        fd = self._outbound[target]
        while outbox:
            head = outbox[0]
            try:
                written = os.write(fd, head)
            except BlockingIOError:
                return
            if written < len(head):
                outbox[0] = memoryview(head)[written:]
                return
            outbox.popleft()
            if not outbox:
                self._poller.unregister(fd)

    def flush(self) -> None:
        """Wait until every outbox has reached its pipe.

        A worker calls this before it stops talking — at the end of a
        job — so a peer still waiting on a frame this rank queued is not
        left without it.
        """
        self._await(
            lambda: None if any(self._outboxes.values()) else True,
            "flushing frames to its peers",
        )

    # ------------------------------------------------------------------
    # receiving

    def recv(self, source: int, tag):
        """Block until the next frame of stream ``(source, tag)`` arrives."""
        key = (source, tag)
        pending = self._pending
        bucket = pending.get(key) or self._await(
            lambda: pending.get(key),
            f"waiting for frame {tag!r} from worker {source}",
        )
        payload = bucket.popleft()
        if not bucket:
            del pending[key]
        return payload

    def _await(self, ready, what: str):
        """Move messages both ways until ``ready()`` returns a value.

        Whoever waits, everything that arrives is handled — early
        frames are buffered, not lost — and every outbox drains as far
        as its pipe takes it.
        """
        deadline = time.monotonic() + self.timeout
        while True:
            result = ready()
            if result is not None:
                return result
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise FabricTimeout(
                    f"worker {self.rank} timed out after "
                    f"{self.timeout:.0f}s {what}"
                )
            for fd, _event in self._poller.poll(min(remaining, 1.0) * 1e3):
                target = self._target_of.get(fd)
                if target is None:
                    self._read(fd)
                else:
                    self._flush(target)

    def _read(self, fd: int) -> None:
        """Take what one inbound pipe holds and ingest every whole
        message in it."""
        buffer = self._inbound[fd]
        while True:
            try:
                data = os.read(fd, _DEFAULT_PIPE_BYTES)
            except BlockingIOError:
                break
            if not data:  # every writer closed: the fabric is gone
                self._poller.unregister(fd)
                break
            buffer += data
            if len(data) < _DEFAULT_PIPE_BYTES:
                break
        messages = []
        pos = 0
        with memoryview(buffer) as view:
            while len(buffer) - pos >= _LENGTH.size:
                (size,) = _LENGTH.unpack_from(buffer, pos)
                end = pos + _LENGTH.size + size
                if end > len(buffer):
                    break
                messages.append(pickle.loads(view[pos + _LENGTH.size:end]))
                pos = end
        del buffer[:pos]
        for _kind, epoch, src, tag, blob in messages:
            if epoch != self.epoch:
                continue
            self.bytes_received += len(blob)
            self.frames_received += 1
            self._pending.setdefault((src, tag), deque()).append(
                pickle.loads(blob)
            )

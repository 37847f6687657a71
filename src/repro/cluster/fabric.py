"""Inter-worker transport: shared-memory frame rings + per-pair pipes.

A :class:`Fabric` is created by the parent process *before* forking: it
owns one pipe per ordered worker pair (the control path), a results
queue back to the parent, and — the data plane — one :class:`FrameRing`
of reusable ``multiprocessing.shared_memory`` slots per worker.  Because
pipes and rings are allocated pre-fork, every worker inherits the same
descriptors and mappings, and a frame crosses processes as **one memcpy
into a shared slot plus a tiny pickled control message**.  Small frames
(below ``SHM_THRESHOLD_BYTES``) ride the pipe inline — at that size the
pipe copy is cheaper than slot bookkeeping.

**Control path.**  A control message is pickled, prefixed with its
length and written by the sending thread itself — no feeder thread, no
cross-process lock: pipe ``(s, t)`` has exactly one writer (rank ``s``)
and one reader (rank ``t``).  Writes never block.  What the pipe cannot
take at once waits, in order, in a per-target outbox that drains
whenever the endpoint waits, so two ranks that flood each other at once
both make progress.  A waiting endpoint ``poll``s its inbound pipes and
its non-empty outboxes together.

**Ownership handoff.**  A ring's slots belong to their owning rank: the
owner acquires free slots, writes the frame, and announces
``(slots, nbytes)`` to the receiver; the receiver deserializes straight
out of shared memory and acks back to the owner, returning the slots to
the owner's free list.  A slot is never rewritten before its ack
arrives.  Frames larger than one slot span several; frames larger than
the whole ring fall back to the inline path, so any size is always
deliverable.

**Overlap.**  Sends are posted without waiting (the superstep's
exchange posts every outgoing frame before its first receive), and
whenever an endpoint waits it handles *everything* that arrives — acks
and early frames from fast peers — so communication progresses while
the worker computes.

**Job epochs.**  Persistent pool workers run many jobs over one fabric.
Every frame carries the sender's job epoch; frames from a superseded
job (a crashed peer's leftovers) are dropped on receipt — their slots
still acked — instead of being misdelivered into the next job's tag
space.

Frames are tagged ``(source, tag)`` so that out-of-order arrivals (a
fast peer racing ahead to the next collective) are buffered rather than
misdelivered; within one ``(source, tag)`` stream FIFO order is
preserved end to end, because a pipe and its outbox are FIFO and the
receive buffer is a deque per stream.
"""

from __future__ import annotations

import os
import pickle
import select
import struct
import time
from collections import deque
from multiprocessing import shared_memory


class FabricTimeout(RuntimeError):
    """A worker waited too long for a peer's frame (peer likely dead)."""


def _parse_columns_wire(view) -> tuple:
    """Split a columnar frame's contiguous wire bytes into its pieces.

    Inverse of the layout :meth:`Endpoint.send_columns` writes:
    ``[4B header_len][header][4B buf_len][buf]...``.  Every piece is
    copied to fresh ``bytes`` because the backing shm slot is recycled
    as soon as the frame is acked.
    """
    header_len = int.from_bytes(view[:4], "big")
    pos = 4
    header = bytes(view[pos: pos + header_len])
    pos += header_len
    buffers = []
    total = len(view)
    while pos < total:
        buf_len = int.from_bytes(view[pos: pos + 4], "big")
        pos += 4
        buffers.append(bytes(view[pos: pos + buf_len]))
        pos += buf_len
    return ("cols", header, buffers)


#: pickled frames at least this large travel through a shared-memory
#: slot; smaller ones ride the pipe inline
SHM_THRESHOLD_BYTES = 16 << 10

#: default capacity of one ring slot
DEFAULT_SLOT_BYTES = 1 << 20

#: the length prefix of one control message on a pipe
_LENGTH = struct.Struct(">Q")

#: how much one ``os.read`` takes from a pipe: a default pipe's capacity
_READ_BYTES = 1 << 16


class FrameRing:
    """One rank's ring of reusable shared-memory slots (created pre-fork).

    Only the owning rank writes to (or acquires) its slots; every other
    rank may map them read-only to deserialize an announced frame.  The
    free list is meaningful in the owner's process only — each forked
    worker mutates its inherited copy of its *own* ring.
    """

    def __init__(self, owner: int, slots: int, slot_bytes: int):
        self.owner = owner
        self.slot_bytes = slot_bytes
        self._segments = [
            shared_memory.SharedMemory(create=True, size=slot_bytes)
            for _ in range(slots)
        ]
        self._free = list(range(slots))
        self._destroyed = False

    def __len__(self) -> int:
        return len(self._segments)

    @property
    def free_slots(self) -> int:
        return len(self._free)

    def try_acquire(self, count: int):
        """Take ``count`` free slots, or ``None`` if not enough are free."""
        if count > len(self._free):
            return None
        taken = self._free[:count]
        del self._free[:count]
        return taken

    def release(self, slots):
        self._free.extend(slots)

    def write_at(self, slot: int, offset: int, data) -> None:
        """Copy ``data`` into ``slot`` starting at ``offset`` (a frame's
        pieces lie contiguously across a slot run, so the writer needs
        sub-slot positioning)."""
        self._segments[slot].buf[offset: offset + len(data)] = data

    def view(self, slot: int, nbytes: int) -> memoryview:
        return self._segments[slot].buf[:nbytes]

    def destroy(self):
        """Unlink every segment; idempotent and safe after partial teardown."""
        if self._destroyed:
            return
        self._destroyed = True
        for segment in self._segments:
            try:
                segment.close()
            except Exception:  # pragma: no cover - exported buffers
                pass
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            except Exception:  # pragma: no cover - defensive
                pass


class Fabric:
    """Parent-side factory for one worker cluster's transport."""

    def __init__(self, size: int, mp_context, timeout: float = 120.0,
                 slot_bytes: int = DEFAULT_SLOT_BYTES,
                 slots_per_worker: int | None = None,
                 use_shared_memory: bool = True):
        self.size = size
        self.timeout = timeout
        self._closed = False
        #: ``(source, target) -> (read fd, write fd)``, both non-blocking
        self._pipes: dict[tuple, tuple] = {}
        try:
            for source in range(size):
                for target in range(size):
                    if source != target:
                        read_fd, write_fd = os.pipe()
                        self._pipes[(source, target)] = (read_fd, write_fd)
                        os.set_blocking(read_fd, False)
                        os.set_blocking(write_fd, False)
        except OSError:
            self._close_pipes()
            raise
        #: workers report completion payloads / errors here
        self.results = mp_context.Queue()
        self._rings = None
        if use_shared_memory and size > 1:
            if slots_per_worker is None:
                # one all-to-all posts size-1 frames before any ack can
                # return; double that so the next exchange can overlap
                slots_per_worker = max(4, 2 * (size - 1))
            rings: list[FrameRing] = []
            try:
                for rank in range(size):
                    rings.append(FrameRing(rank, slots_per_worker,
                                           slot_bytes))
                self._rings = rings
            except (OSError, ValueError):  # pragma: no cover - no /dev/shm
                for ring in rings:
                    ring.destroy()
                self._rings = None

    def endpoint(self, rank: int) -> "Endpoint":
        inbound = {s: fds[0] for (s, t), fds in self._pipes.items()
                   if t == rank}
        outbound = {t: fds[1] for (s, t), fds in self._pipes.items()
                    if s == rank}
        return Endpoint(rank, inbound, outbound, self.timeout,
                        rings=self._rings)

    def _close_pipes(self):
        for fds in self._pipes.values():
            for fd in fds:
                try:
                    os.close(fd)
                except OSError:  # pragma: no cover - already closed
                    pass
        self._pipes.clear()

    def close(self):
        """Tear down pipes, the results queue and rings.

        Idempotent, and safe after a *partial* teardown — crashed
        workers, pipes with unread frames, rings whose segments were
        already unlinked — so crash-handling paths can always call it.
        """
        if self._closed:
            return
        self._closed = True
        self._close_pipes()
        for teardown in (self.results.cancel_join_thread, self.results.close):
            try:
                teardown()
            except Exception:  # pragma: no cover - defensive
                pass
        if self._rings:
            for ring in self._rings:
                ring.destroy()


class Endpoint:
    """One worker's view of the fabric: tagged send/recv of frames."""

    def __init__(self, rank: int, inbound: dict, outbound: dict,
                 timeout: float, rings=None,
                 shm_threshold: int = SHM_THRESHOLD_BYTES):
        self.rank = rank
        self.timeout = timeout
        self._rings = rings
        self._ring = rings[rank] if rings is not None else None
        self.shm_threshold = shm_threshold
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
        """Gauge samples for the registry's superstep-boundary poll.

        ``fabric.bytes_in_flight`` is rounded up to whole slots: the
        slots announced but not yet acked, times the slot size.
        """
        ring = self._ring
        slots = len(ring) if ring is not None else 0
        held = slots - ring.free_slots if ring is not None else 0
        return {
            "fabric.ring_slots": slots,
            "fabric.ring_free_slots": slots - held,
            "fabric.ring_occupancy": held / slots if slots else 0.0,
            "fabric.bytes_in_flight":
                held * ring.slot_bytes if ring is not None else 0,
            "fabric.pending_frames":
                sum(len(bucket) for bucket in self._pending.values()),
        }

    def begin_job(self, epoch) -> None:
        """Reset per-job state before running a new job on this endpoint.

        Counters restart at zero, buffered frames from any previous
        (possibly aborted) job are discarded, and the epoch advances so
        in-flight leftovers are dropped on receipt — their shared-memory
        slots still acked back to their owners.  Outboxes and partly
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
        #: fixed-width column buffers that reached the wire as raw
        #: memcpy into a shared slot — never pickled (columnar frames
        #: on the shm path only; inline fallbacks don't count)
        self.columns_zero_copied = 0
        self.bytes_zero_copied = 0
        #: frames by path: through ring slots, inline on the
        #: pipe, and inline only because the ring could not hold them
        self.frames_shm = 0
        self.frames_inline = 0
        self.inline_fallbacks = 0

    # ------------------------------------------------------------------
    # sending

    def send(self, target: int, tag, payload):
        self.send_raw(
            target, tag,
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def send_raw(self, target: int, tag, blob: bytes):
        """Send an already-pickled frame.

        The chunked exchange pickles each sized run exactly once and
        hands the blob straight here.  ``blob`` must unpickle to the
        frame payload, exactly as :meth:`send` would have produced.
        """
        posted = self._post(target, tag, "s", (blob,), len(blob))
        self.bytes_sent += len(blob)
        self.frames_sent += 1
        if not posted:
            self.frames_inline += 1
            self._push(target, ("f", self.epoch, self.rank, tag, blob))

    def send_columns(self, target: int, tag, header: bytes, buffers):
        """Send a struct-of-arrays frame without pickling its payload.

        The wire layout is length-prefixed pieces laid contiguously:
        ``[4B header_len][header][4B buf_len][buf]...`` — the header is
        a small pickled schema tuple, each ``buf`` one column.  On the
        shm path every fixed-width buffer (a ``memoryview``) reaches
        the wire as a raw memcpy into a shared slot, never touching
        pickle; the ``columns_zero_copied`` / ``bytes_zero_copied``
        counters record exactly those buffers.  Object-column buffers
        arrive here already pickled and are copied like any bytes.

        Frames below the shm threshold — or larger than the ring — ride
        the pipe as one pickled ``("cols", header, buffers)``
        frame instead: correct either way, but pickling bytes is still
        serialization, so the zero-copy counters stay untouched.
        """
        pieces = [len(header).to_bytes(4, "big"), header]
        for buffer in buffers:
            pieces.append(len(buffer).to_bytes(4, "big"))
            pieces.append(buffer)
        nbytes = sum(len(piece) for piece in pieces)
        if not self._post(target, tag, "c", pieces, nbytes):
            self.send(
                target, tag,
                ("cols", bytes(header), [bytes(b) for b in buffers]),
            )
            return
        self.bytes_sent += nbytes
        self.frames_sent += 1
        raw = [len(b) for b in buffers if isinstance(b, memoryview)]
        self.columns_zero_copied += len(raw)
        self.bytes_zero_copied += sum(raw)

    def _post(self, target: int, tag, kind: str, pieces, nbytes: int) -> bool:
        """Post a frame's ``pieces`` through this rank's ring.

        The one ring-or-inline decision: a frame of at least
        ``shm_threshold`` bytes that the ring can hold is written across
        a run of slots and announced to ``target`` as ``(kind, epoch,
        source, tag, nbytes, slots)``.  Returns ``False`` — nothing
        posted — when the frame must ride the pipe inline.
        """
        if target == self.rank:
            raise ValueError("a worker does not send frames to itself")
        if self.rides_inline(nbytes):
            return False
        slots = self._acquire_slots(nbytes)
        if slots is None:
            # large frame, but the whole ring cannot hold it: inline
            self.inline_fallbacks += 1
            return False
        self._write_pieces(slots, pieces)
        self.frames_shm += 1
        self._push(target, (kind, self.epoch, self.rank, tag, nbytes, slots))
        return True

    def rides_inline(self, nbytes: int) -> bool:
        """Whether a frame of ``nbytes`` wire bytes skips the ring."""
        return self._ring is None or nbytes < self.shm_threshold

    def _push(self, target: int, message) -> None:
        """Queue one control message for ``target`` and write what the
        pipe takes now; never blocks."""
        data = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
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

    def _write_pieces(self, slots, pieces) -> None:
        """Lay ``pieces`` contiguously across a run of acquired slots."""
        ring = self._ring
        size = ring.slot_bytes
        pos = 0
        for piece in pieces:
            view = memoryview(piece)
            offset = 0
            while offset < len(view):
                slot = slots[pos // size]
                slot_offset = pos % size
                take = min(size - slot_offset, len(view) - offset)
                ring.write_at(slot, slot_offset,
                              view[offset: offset + take])
                pos += take
                offset += take

    def _acquire_slots(self, nbytes: int):
        """Free slots covering ``nbytes``, or ``None`` for inline fallback.

        When every slot is in flight, wait on our inbound pipes — acks
        return slots — until enough come back or the timeout expires.
        """
        ring = self._ring
        needed = -(-nbytes // ring.slot_bytes)
        if needed > len(ring):
            return None
        return self._await(
            lambda: ring.try_acquire(needed),
            "waiting to reclaim shared-memory frame slots "
            "(peer likely dead)",
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

        Whoever waits, everything that arrives is handled — acks return
        slots, early data frames are buffered, not lost — and every
        outbox drains as far as its pipe takes it.
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
                data = os.read(fd, _READ_BYTES)
            except BlockingIOError:
                break
            if not data:  # every writer closed: the fabric is gone
                self._poller.unregister(fd)
                break
            buffer += data
            if len(data) < _READ_BYTES:
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
        for message in messages:
            self._ingest(message)

    def _ingest(self, message) -> None:
        kind = message[0]
        if kind == "a":  # ack: our slots came home
            self._ring.release(message[1])
            return
        if kind in ("s", "c"):
            _, epoch, src, tag, nbytes, slots = message
            payload = None
            if epoch == self.epoch:
                payload = self._load_slots(
                    src, nbytes, slots,
                    pickle.loads if kind == "s" else _parse_columns_wire,
                )
            # handoff complete either way: return the slots to their owner
            self._push(src, ("a", slots))
            if epoch != self.epoch:
                return
        else:
            _, epoch, src, tag, blob = message
            if epoch != self.epoch:
                return
            nbytes = len(blob)
            payload = pickle.loads(blob)
        self.bytes_received += nbytes
        self.frames_received += 1
        self._pending.setdefault((src, tag), deque()).append(payload)

    def _load_slots(self, src: int, nbytes: int, slots, parse):
        """``parse`` a frame's bytes straight out of the sender's ring.

        ``parse`` must copy what it keeps — the slots are acked (and
        recyclable) the moment this returns.  For columnar frames it
        rebuilds the same ``("cols", header, buffers)`` payload the
        inline fallback delivers, so receivers never see which path a
        frame took.
        """
        ring = self._rings[src]
        if len(slots) == 1:
            view = ring.view(slots[0], nbytes)
            try:
                return parse(view)
            finally:
                view.release()
        parts = []
        remaining = nbytes
        for slot in slots:
            take = min(remaining, ring.slot_bytes)
            view = ring.view(slot, take)
            parts.append(bytes(view))
            view.release()
            remaining -= take
        return parse(memoryview(b"".join(parts)))

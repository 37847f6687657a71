"""Termination detection for synchronous and asynchronous iterations.

Synchronous supersteps use the simple voting scheme of Section 5.3: at
the superstep barrier every partition reports its produced-workset size,
and the iteration ends when the global sum is zero.  That vote needs no
class of its own — it is one ``cluster.allreduce_sum``, taken as the
``pending()`` callback of :func:`repro.iterations.supersteps.run_supersteps`.

Asynchronous microstep execution has no barrier, so we implement a
message-acknowledgement detector in the spirit of Lai/Tseng/Dong [27]:
every enqueued workset element is a pending message, every processed
element an acknowledgement, and the computation has terminated exactly
when all partitions are idle and no message is unacknowledged.
"""

from __future__ import annotations


class AsyncTerminationDetector:
    """Counts in-flight workset elements across partitions.

    ``sent`` when an element is enqueued (locally or remotely), ``acked``
    when a partition finishes processing it.  ``terminated`` holds when
    every sent element has been acknowledged and all partitions report an
    empty queue — at that point no future work can be generated, because
    work is only generated while processing an element.
    """

    def __init__(self, parallelism: int):
        self.parallelism = parallelism
        self._sent = 0
        self._acked = 0
        self._idle = [True] * parallelism

    def sent(self, count: int = 1):
        self._sent += count

    def acked(self, count: int = 1):
        self._acked += count
        if self._acked > self._sent:
            raise RuntimeError("acknowledged more elements than were sent")

    def set_idle(self, partition: int, idle: bool):
        self._idle[partition] = idle

    @property
    def sent_count(self) -> int:
        """Elements enqueued so far (the async loops size their round
        cap from the seeded count)."""
        return self._sent

    @property
    def in_flight(self) -> int:
        return self._sent - self._acked

    @property
    def terminated(self) -> bool:
        return self.in_flight == 0 and all(self._idle)

    # ------------------------------------------------------------------
    # checkpointable state (async recovery, SPMD token ring)

    def snapshot_state(self):
        return (self._sent, self._acked, list(self._idle))

    def restore_state(self, state):
        self._sent, self._acked, idle = state
        self._idle = list(idle)

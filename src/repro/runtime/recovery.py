"""Failure injection and superstep checkpointing (Section 4.2).

Iterative dataflows can log intermediate results for recovery like
non-iterative ones, with one twist: a fresh log version per logged
superstep.  This module provides that log plus a failure injector, so
the recovery path is exercisable in tests and benchmarks:

* :class:`CheckpointStore` snapshots an iteration's state (partial
  solution / solution set + workset) every ``interval`` supersteps.
* :class:`FailureInjector` raises :class:`SimulatedFailure` at a chosen
  superstep, once.
* The executor catches the failure, restores the latest snapshot, and
  replays from there; the metrics record how many supersteps were
  re-executed.

Snapshots are pickle round-trips, not in-memory ``deepcopy``: a real
recovery log serializes to stable storage, so taking a checkpoint here
pays the serialization cost (``checkpoint_bytes``/``total_bytes`` track
it) and guarantees the checkpointed state is actually picklable — the
same property the multiprocess backend needs of every record.  A
solution set is logged as its
:meth:`~repro.iterations.solution_set.SolutionSetIndex.snapshot`, one
item list per partition, and reinstalled through its ``restore``; under
a memory budget those lists become part-store parts (one frame each, in
the storage layer's one format), and the disk-backed index rebuilds its
logs inside its own spill session, so a recovered run leaves nothing
behind when the environment closes.

Enable via ``env.checkpoint_interval`` and ``env.failure_injector``.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field


class SimulatedFailure(Exception):
    """An injected machine failure during a superstep."""

    def __init__(self, superstep: int):
        self.superstep = superstep
        super().__init__(f"simulated failure in superstep {superstep}")


class FailureInjector:
    """Raises once when the iteration reaches ``fail_at_superstep``."""

    def __init__(self, fail_at_superstep: int):
        self.fail_at_superstep = fail_at_superstep
        self.fired = False

    def __call__(self, superstep: int):
        if not self.fired and superstep == self.fail_at_superstep:
            self.fired = True
            raise SimulatedFailure(superstep)


@dataclass
class Checkpoint:
    superstep: int
    state: object
    workset: object


@dataclass
class CheckpointStore:
    """Keeps the latest snapshot; ``interval=k`` logs every k supersteps.

    The snapshot is held as a pickled blob: ``take`` serializes, and
    every ``restore`` (and every read of :attr:`latest`) deserializes a
    fresh, independent copy — exactly the isolation a log on stable
    storage provides.

    With a :class:`~repro.storage.partstore.PartStore` attached, a list
    state logs each of its partitions — a record list, or a solution
    set's ``(key, record)`` items
    (:meth:`~repro.iterations.solution_set.SolutionSetIndex.snapshot`)
    — as a *part* instead of riding in the blob, and restores it as a
    list: the store's content-hash dedup means consecutive
    checkpoints rewrite only the partitions that actually changed
    (incremental checkpointing), and ``checkpoint_bytes`` counts only
    the newly written bytes.  The workset is small and always changing,
    so it stays in the pickled blob.
    """

    interval: int
    part_store: object = None
    snapshots_taken: int = 0
    recoveries: int = 0
    supersteps_replayed: int = 0
    #: serialized size of the latest snapshot / all snapshots taken
    checkpoint_bytes: int = 0
    total_bytes: int = 0
    _blob: bytes | None = field(default=None, repr=False)
    _state_parts: list | None = field(default=None, repr=False)
    _superstep: int = 0

    def due(self, superstep: int) -> bool:
        return self.interval > 0 and (superstep - 1) % self.interval == 0

    def take(self, superstep: int, state, workset):
        state_parts = None
        part_bytes = 0
        if self.part_store is not None and isinstance(state, list):
            state_parts = []
            for records in state:
                written_before = self.part_store.parts_written
                part_id = self.part_store.put_part(records)
                if self.part_store.parts_written > written_before:
                    part_bytes += self.part_store.part_stats(part_id)["bytes"]
                state_parts.append(part_id)
            payload = (None, workset)
        else:
            payload = (state, workset)
        try:
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise TypeError(
                f"checkpoint of superstep {superstep} is not "
                f"serializable: {exc} — iteration state must be "
                "picklable to be recoverable"
            ) from exc
        self._blob = blob
        self._state_parts = state_parts
        self._superstep = superstep
        self.checkpoint_bytes = len(blob) + part_bytes
        self.total_bytes += len(blob) + part_bytes
        self.snapshots_taken += 1

    def _materialize(self):
        state, workset = pickle.loads(self._blob)
        if self._state_parts is not None:
            state = [
                self.part_store.load_part(part_id)
                for part_id in self._state_parts
            ]
        return state, workset

    @property
    def latest(self) -> Checkpoint | None:
        if self._blob is None:
            return None
        state, workset = self._materialize()
        return Checkpoint(
            superstep=self._superstep, state=state, workset=workset
        )

    def restore(self, failed_superstep: int) -> Checkpoint:
        if self._blob is None:
            raise RuntimeError(
                "failure before the first checkpoint; cannot recover"
            )
        self.recoveries += 1
        self.supersteps_replayed += failed_superstep - self._superstep
        state, workset = self._materialize()
        return Checkpoint(
            superstep=self._superstep, state=state, workset=workset
        )

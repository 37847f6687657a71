"""The superstep protocol, written once (Sections 4.2 and 5.3).

Table 1 gives FIXPOINT, INCR and MICRO as one ``while`` loop that
differs only in its step function, and every superstep-structured
execution of them follows one protocol: take the barrier vote, log a
fresh version of the state if this superstep is a logged one, run the
step function, and on a machine failure restore the latest log and
replay.  :func:`run_supersteps` is that protocol; bulk iterations, delta
supersteps and the microstep rounds (whole drains for ``microstep``,
bounded drains for ``async``) are its three callers and supply only what
differs between them.

Termination is the simple voting scheme of Section 5.3: at the barrier
every partition reports the work it has left, and the iteration ends
when the global sum is zero.  That vote needs no class of its own — it
is one ``cluster.allreduce_sum``, taken as the ``pending()`` callback of
:func:`run_supersteps`.

This module and :mod:`repro.iterations.microstep_runtime` import
``repro.runtime``, whose package init imports the executor, which
imports them back.  Two rules keep that cycle harmless:
``repro.iterations``'s package init does not import them, and inside the
cycle they are bound as module objects (``from repro.iterations import
supersteps``), never by name.
"""

from __future__ import annotations

from repro.runtime.recovery import CheckpointStore, SimulatedFailure


def _recovery_hooks(executor):
    """(checkpoint store or None, failure injector or None) for one
    iteration; the store is also left on ``executor.checkpoint_store``."""
    store = None
    if executor.checkpoint_interval:
        part_store = None
        if executor.spill is not None:
            from repro.storage.partstore import PartStore

            # parts live inside the spill session, so checkpoint
            # files share the session's cleanup guarantees
            part_store = PartStore(
                executor.spill.session.subdir("checkpoints")
            )
        store = CheckpointStore(
            executor.checkpoint_interval, part_store=part_store
        )
        executor.checkpoint_store = store
    return store, executor.failure_injector


def run_supersteps(executor, max_steps, pending, snapshot, restore, body):
    """Run supersteps ``1..max_steps``; returns ``(converged, steps)``.

    ``pending()`` is the barrier vote — the global amount of work left,
    the same answer on every context; zero ends the iteration as
    converged (``None``: the iteration does not vote).  ``snapshot()``
    returns the ``(state, workset)`` to log before a logged superstep
    and ``restore(checkpoint)`` reinstalls one.  ``body(step)`` is the
    step function; it returns ``(stop, sizes)`` where ``stop`` ends the
    iteration as converged and ``sizes`` are ``end_superstep``'s
    keywords.

    ``converged`` is False only when ``max_steps`` ran out; ``steps`` is
    the highest superstep number that ran.  Under SPMD the injector
    fires in every worker at the same superstep, before any
    communication — all workers take the restore path together, so no
    straggler blocks a collective.
    """
    store, injector = _recovery_hooks(executor)
    metrics = executor.metrics
    steps = 0
    step = 1
    while step <= max_steps:
        if pending is not None and not pending():
            return True, steps
        if store is not None and store.due(step):
            store.take(step, *snapshot())
        steps = max(steps, step)
        metrics.begin_superstep(step)
        try:
            if injector is not None:
                injector(step)
            stop, sizes = body(step)
        except SimulatedFailure as failure:
            # recovery (Section 4.2): restore the latest logged
            # superstep and replay from there
            metrics.end_superstep()
            if store is None:
                raise RuntimeError(
                    "machine failure without checkpointing enabled"
                ) from failure
            checkpoint = store.restore(failure.superstep)
            restore(checkpoint)
            step = checkpoint.superstep
            continue
        metrics.end_superstep(**sizes)
        step += 1
        if stop:
            return True, steps
    return False, steps

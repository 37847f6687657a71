"""The SPMD worker runtime: a pool of forked workers.

Every job that leaves the calling process runs here — one worker loop
(:func:`_pool_worker`), one plan-job body (:class:`_PlanJob`), one
gather loop (:meth:`WorkerPool._gather`) — on the same executor, the
same collectives and the same bitwise-equivalence guarantees as the
in-process simulator:

* **Workers outlive a job.**  A :class:`WorkerPool` forks its workers
  once; ``execute_plan`` / ``run_program`` jobs (and all their
  supersteps) are dispatched to those processes over one job pipe per
  worker, which the parent writes from its own thread.  Jobs cross by
  value through the closure-capable :mod:`~repro.cluster.codec`.
* **Frames travel over per-pair pipes.**  The pool's
  :class:`~repro.cluster.fabric.Fabric` makes one pipe per ordered
  worker pair before forking, so what a worker sends a peer in one
  exchange is one pickled message written straight to the peer's pipe
  (see :mod:`repro.cluster.fabric`).
* **Crashes are bounded, not hung.**  The gather loop waits for every
  rank's report (bounded by the fabric timeout) and raises the first
  error to *arrive* as the root cause; it treats any
  dead-without-result worker as a crash regardless of exit code,
  enforces an overall deadline, and escalates ``terminate`` → ``kill``
  on teardown.  A job that fails *cleanly* on every rank (a Python
  exception, a :class:`~repro.cluster.fabric.FabricTimeout` on a
  stalled peer) leaves the pool healthy — workers return to their job
  pipe and the next job runs without re-forking; job epochs stop any
  leftover frames from leaking into it.  Teardown closes every pipe the
  pool made before it returns, a crashed pool's included.

Two backend names select the pool's lifetime, nothing else:

    env = ExecutionEnvironment(4, backend="pool")          # persistent
    env = ExecutionEnvironment(4, backend="multiprocess")  # one-shot

``"pool"`` (:class:`PoolBackend`) creates one pool lazily per backend
instance (so per ``ExecutionEnvironment`` when resolved from the string
spelling) and keeps it across that environment's jobs; sharing one
:class:`PoolBackend` instance across environments shares the pool.
``"multiprocess"`` (:class:`MultiprocessBackend`) forks a pool of
``parallelism`` workers for each job and closes it when the job returns
or raises.
"""

from __future__ import annotations

import gc
import multiprocessing
import pickle
import queue as queue_module
import time
import traceback
import weakref

from repro.cluster import codec
from repro.cluster.backends import (
    BACKENDS,
    ExecutionBackend,
    WorkerCrash,
    _merge_worker_metrics,
    absorb_plan_payloads,
    reap_workers,
)
from repro.cluster.context import WorkerCluster
from repro.cluster.fabric import PIPE_BYTES, Fabric, grow_pipe
from repro.observability.health import (
    VITALS,
    HealthMonitor,
    HeartbeatSender,
)

#: this worker process's heartbeat sender (None in the parent and in
#: workers that never ran a telemetry-enabled job)
_heartbeat_sender: HeartbeatSender | None = None


def stop_heartbeats() -> None:
    """Silence this worker's heartbeat thread (fault-injection hook).

    Exists so tests can simulate heartbeat *loss* — a worker that is
    alive but no longer reporting — without killing the process.
    """
    if _heartbeat_sender is not None:
        _heartbeat_sender.stop()


def _pool_worker(jobs, fabric, rank: int, size: int) -> None:
    """One long-lived worker: loop jobs until the ``None`` sentinel.

    A job that raises — including a :class:`FabricTimeout` on a dead or
    stalled peer — reports an error payload and returns to its job
    pipe; only process death (or the sentinel) ends the loop.
    ``begin_job`` resets the endpoint's counters, buffered frames, and
    epoch, so no state leaks between consecutive jobs.

    Jobs carrying a ``heartbeat_interval`` (telemetry-enabled plans)
    start a daemon :class:`HeartbeatSender` on first use; it samples the
    worker's :data:`VITALS` and ships ``("hb", ...)`` records over the
    results queue for the parent's :class:`HealthMonitor`, and is paused
    between jobs so idle workers stay silent.
    """
    VITALS.configure(rank)
    endpoint = fabric.endpoint(rank)
    while True:
        message = jobs.recv()
        if message is None:
            return
        _serve(message, endpoint, fabric, rank, size)
        # a finished job's unpickled plan is a reference cycle (its
        # source data included): free it now, not whenever the
        # collector next reaches the oldest generation, so a worker's
        # footprint does not grow with the jobs it has served
        gc.collect()


def _serve(message, endpoint, fabric, rank: int, size: int) -> None:
    """Run one job message on this worker and post its report."""
    global _heartbeat_sender
    job_id, blob = message
    endpoint.begin_job(job_id)
    heartbeats = False
    try:
        body = codec.loads(blob)
        interval = getattr(body, "heartbeat_interval", None)
        if interval:
            heartbeats = True
            VITALS.begin_job(job_id)
            if _heartbeat_sender is None:
                _heartbeat_sender = HeartbeatSender(fabric.results, VITALS)
            _heartbeat_sender.resume(interval)
        cluster = WorkerCluster(endpoint, size)
        payload = body(cluster)
        # a peer may still wait on a frame this rank queued
        endpoint.flush()
        metrics = (
            payload.get("metrics") if isinstance(payload, dict) else None
        )
        if metrics is not None:
            reconcile_wire_counts(metrics, endpoint)
        out = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        fabric.results.put(("ok", job_id, rank, out))
    except BaseException:
        fabric.results.put(("error", job_id, rank, traceback.format_exc()))
    finally:
        if heartbeats:
            _heartbeat_sender.pause()
            VITALS.end_job()
            try:
                # farewell beat: tells the parent monitor this rank
                # went idle on purpose, so its coming silence is not
                # heartbeat loss and its progress age means nothing
                fabric.results.put(
                    ("hb", None, rank, VITALS.heartbeat(interval))
                )
            except Exception:  # pragma: no cover - pool teardown
                pass


def reconcile_wire_counts(metrics, endpoint) -> None:
    """Bring ``metrics``' wire counts up to ``endpoint``'s (idempotent).

    Control-plane traffic (barrier votes, allgathers) and exchanges
    outside an instrumented ship site (microstep routing) reach the wire
    without a counter hook; route the difference through the hook, so
    the job's ``bytes_shipped`` equals what the endpoint sent.
    """
    leftover = endpoint.bytes_sent - metrics.bytes_shipped
    if leftover > 0:
        metrics.add_bytes_shipped(leftover)


def _shutdown_pool(workers, job_pipes, fabric, force: bool = False) -> None:
    """Best-effort teardown usable from ``close`` and GC finalization.

    The clean path hands every worker its ``None`` sentinel; a forced
    one terminates them.  Either way every pipe the pool made — the job
    pipes, the fabric's and each reaped ``Process``'s sentinel — is
    closed here, in this thread, before this returns.
    """
    if not force:
        for pipe in job_pipes:
            try:
                pipe.send(None)
            except OSError:  # the worker is gone
                force = True
                break
    reap_workers(workers, incomplete=force)
    for worker in workers:
        try:
            worker.close()
        except ValueError:  # outlived even its kill: keep the handle
            pass
    for pipe in job_pipes:
        pipe.close()
    fabric.close()


class WorkerPool:
    """``size`` long-lived SPMD workers over one fabric."""

    def __init__(self, size: int, timeout: float = 120.0, mp_context=None):
        if mp_context is None:
            try:
                mp_context = multiprocessing.get_context("fork")
            except ValueError as exc:  # pragma: no cover - non-POSIX
                raise RuntimeError(
                    "the pool backend needs the 'fork' start method "
                    "(workers inherit loaded modules and the fabric's "
                    "pipes)"
                ) from exc
        self.size = size
        self.timeout = timeout
        self.fabric = Fabric(size, mp_context, timeout)
        #: the write end of each rank's job pipe
        self.job_pipes = []
        self.workers = []
        for rank in range(size):
            reader, writer = mp_context.Pipe(duplex=False)
            # a job of up to a pipe (about 1 MB on the benchmark's
            # graphs) reaches every rank without waiting on its reader
            grow_pipe(writer.fileno(), PIPE_BYTES)
            process = mp_context.Process(
                target=_pool_worker,
                args=(reader, self.fabric, rank, size),
                daemon=True,
                name=f"pool-worker-{rank}",
            )
            process.start()
            # closed before the next fork: the worker holds the only
            # read end, so a send to a dead worker fails at once
            reader.close()
            self.job_pipes.append(writer)
            self.workers.append(process)
        #: read once: a closed ``Process`` no longer answers ``pid``
        self.worker_pids = [worker.pid for worker in self.workers]
        self._job_seq = 0
        #: parent-side heartbeat ledger; populated only when jobs run
        #: with telemetry enabled (workers stay silent otherwise)
        self.monitor = HealthMonitor(size)
        self.closed = False
        self._finalizer = weakref.finalize(
            self, _shutdown_pool, list(self.workers), list(self.job_pipes),
            self.fabric,
        )

    # ------------------------------------------------------------------

    def run_job(self, body):
        """Run ``body(cluster)`` on every worker; gather payloads by rank.

        Raises :class:`WorkerCrash` if any rank errors or dies.  When
        every rank reports (even if some report errors), the pool stays
        open for the next job; a rank that dies or never reports forces
        a full teardown.
        """
        if self.closed:
            raise RuntimeError("worker pool is closed")
        self._job_seq += 1
        job_id = self._job_seq
        blob = codec.dumps(body)
        try:
            for pipe in self.job_pipes:
                pipe.send((job_id, blob))
        except OSError as exc:
            self.close(force=True)
            raise WorkerCrash(f"a worker died between jobs: {exc}") from exc
        return self._gather(job_id)

    def _gather(self, job_id):
        # generous slack over the fabric timeout so a worker's own
        # FabricTimeout (a recoverable, clean error) fires first
        deadline = time.monotonic() + self.timeout * 1.5 + 5.0
        payloads: dict[int, dict] = {}
        errors: dict[int, str] = {}  # insertion-ordered: arrival order
        while len(payloads) + len(errors) < self.size:
            try:
                kind, jid, rank, data = self.fabric.results.get(timeout=0.25)
            except queue_module.Empty:
                # health check first: a stall or heartbeat loss surfaces
                # as a structured warning well before the deadline turns
                # it into a WorkerCrash
                self.monitor.emit()
                dead = [
                    w.name for r, w in enumerate(self.workers)
                    if r not in payloads and r not in errors
                    and not w.is_alive()
                ]
                if dead:
                    # dead without a result is a crash regardless of
                    # exit code (a silent exit(0) must not hang us)
                    self.close(force=True)
                    raise WorkerCrash(
                        f"worker(s) {', '.join(dead)} died without "
                        f"reporting a result{self._health_suffix()}"
                    )
                if time.monotonic() >= deadline:
                    missing = sorted(
                        set(range(self.size)) - set(payloads) - set(errors)
                    )
                    self.close(force=True)
                    raise WorkerCrash(
                        f"gave up waiting for worker(s) {missing} after "
                        f"{self.timeout:.0f}s: no result and no exit"
                        f"{self._health_suffix()}"
                    )
                continue
            if kind == "hb":
                # heartbeat on the control channel (jid is None): feed
                # the monitor and keep waiting for real results
                self.monitor.observe(data)
                self.monitor.emit()
                continue
            if jid != job_id:
                continue  # stale report from an earlier, aborted job
            if kind == "error":
                errors[rank] = data
            else:
                payloads[rank] = pickle.loads(data)
        if errors:
            # the first error to *arrive* is the root cause — a peer's
            # FabricTimeout on the now-dead collective trails it by a
            # full timeout window
            rank, remote_traceback = next(iter(errors.items()))
            others = [f"worker {r}" for r in errors if r != rank]
            trailer = (
                f"\n(also failed: {', '.join(others)})" if others else ""
            )
            raise WorkerCrash(
                f"worker {rank} failed:\n{remote_traceback}{trailer}"
            )
        return [payloads[rank] for rank in range(self.size)]

    def _health_suffix(self) -> str:
        context = self.monitor.context()
        return f"\nlast heartbeats: {context}" if context else ""

    def close(self, force: bool = False) -> None:
        """Shut the pool down; idempotent, safe after worker crashes."""
        if self.closed:
            return
        self.closed = True
        self._finalizer.detach()
        _shutdown_pool(self.workers, self.job_pipes, self.fabric,
                       force=force)


class _PlanJob:
    """A compiled plan plus the session its worker-side executor reads.

    The parent's environment holds the backend — and through it the
    pool's process handles — so it never crosses the wire.  This job is
    decoded afresh in every worker, so it doubles as that worker's
    session: ``__init__`` lists every attribute the :class:`Executor`
    reads from one.
    """

    def __init__(self, exec_plan, env):
        self.exec_plan = exec_plan
        self.parallelism = env.parallelism
        self.config = env.config
        self.checkpoint_interval = env.checkpoint_interval
        self.failure_injector = env.failure_injector
        # pickled as a non-owning, path-only view of the parent's spill
        # directory: the worker allocates files inside the parent tree
        # (which sweeps them) but can never delete it
        self.storage_session = env.storage_session
        # worker-local: bound when the job runs
        self.cluster = None
        self.metrics = None
        self.last_checkpoint_store = None
        #: non-None marks this a telemetry job: the worker loop starts
        #: its heartbeat sender at this cadence before calling the body
        self.heartbeat_interval = (
            env.config.heartbeat_interval_s if env.config.telemetry else None
        )

    def __call__(self, cluster):
        from repro.runtime.executor import Executor
        from repro.runtime.metrics import MetricsCollector

        self.cluster = cluster
        self.metrics = metrics = MetricsCollector.for_config(
            self.config, rank=cluster.rank
        )
        registry = None
        if self.config.telemetry:
            from repro.observability.telemetry import attach_telemetry
            registry = attach_telemetry(
                metrics, rank=cluster.rank, vitals=VITALS
            )
            wall_started = time.perf_counter()
            cpu_started = time.process_time()
        executor = Executor(self)
        results = executor.run(self.exec_plan)
        payload = {
            "results": results,
            "metrics": metrics,
            "summaries": executor.iteration_summaries,
            "checkpoint_store": self.last_checkpoint_store,
        }
        if registry is not None:
            from repro.observability.telemetry import bill_job
            # the registry stays home: the payload carries a plain-dict
            # snapshot, and the parent's collector merge never has to
            # reconcile live instruments
            metrics.telemetry = None
            reconcile_wire_counts(metrics, cluster.endpoint)
            entry = bill_job(
                registry, None, cluster.rank,
                time.perf_counter() - wall_started,
                time.process_time() - cpu_started,
                executor, metrics.sample(),
            )
            payload["telemetry"] = registry.snapshot()
            payload["resources"] = entry.as_dict()
        return payload


class _ProgramJob:
    """A replicated SPMD driver program wrapped into a pool job."""

    def __init__(self, program):
        self.program = program

    def __call__(self, cluster):
        result, metrics = self.program(cluster)
        return {"results": result, "metrics": metrics}


class PoolBackend(ExecutionBackend):
    """Persistent worker pool; frames cross over per-pair pipes."""

    name = "pool"

    def __init__(self, timeout: float = 120.0):
        self.timeout = timeout
        self._pool: WorkerPool | None = None

    # the pool (process handles, queues) never pickles; a backend that
    # rides along inside a pickled closure reconnects lazily
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_pool"] = None
        return state

    @property
    def pool(self) -> WorkerPool | None:
        """The live pool, if one has been created (introspection/tests)."""
        return self._pool

    def _ensure_pool(self, size: int) -> WorkerPool:
        pool = self._pool
        if pool is not None and (pool.closed or pool.size != size):
            pool.close()
            pool = self._pool = None
        if pool is None:
            pool = self._pool = WorkerPool(size, timeout=self.timeout)
        return pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    # ------------------------------------------------------------------

    def _run_job(self, size: int, job):
        return self._ensure_pool(size).run_job(job)

    def execute_plan(self, env, exec_plan):
        payloads = self._run_job(env.parallelism, _PlanJob(exec_plan, env))
        return absorb_plan_payloads(env, payloads)

    def run_program(self, program, parallelism):
        payloads = self._run_job(parallelism, _ProgramJob(program))
        merged, timelines = _merge_worker_metrics(payloads)
        self.last_worker_traces = timelines
        return payloads[0]["results"], merged


class MultiprocessBackend(PoolBackend):
    """The pool, cold: forked for one job and closed after it.

    Nothing survives the job — no worker process, no pipe — whether it
    returns or raises.
    """

    name = "multiprocess"

    def _run_job(self, size: int, job):
        try:
            return super()._run_job(size, job)
        finally:
            self.close()


BACKENDS["pool"] = PoolBackend
BACKENDS["multiprocess"] = MultiprocessBackend

"""Worker heartbeats and the health monitor.

The pool backend's only liveness signal used to be the gather deadline:
a stalled worker surfaced as a :class:`WorkerCrash` minutes after the
stall began, with no indication of *which* rank or *why*.  This module
adds the early-warning layer:

* :class:`WorkerVitals` — one per worker process (module-global
  :data:`VITALS`), updated by the executor's superstep hooks via the
  telemetry registry.  Holds rank, pid, current job, current superstep,
  RSS, and a last-progress timestamp.
* heartbeats — small dicts sampled from the vitals by a background
  thread in each pool worker and shipped over the existing results
  control queue (``("hb", ...)`` messages) on a fixed cadence.
* :class:`HealthMonitor` — parent-side: ingests heartbeats, and on
  every gather poll answers "is anyone silent, stalled, or lagging?".
  Findings are emitted as **structured warnings**
  (:class:`HeartbeatLossWarning`, :class:`StallWarning`,
  :class:`StragglerWarning`) *before* the gather deadline escalates to
  a crash — each (rank, kind) pair warns once until the rank recovers.

All timestamps are ``time.perf_counter()`` — CLOCK_MONOTONIC, shared
across forked workers on Linux, and the same timebase the span tracer
and metric series use.
"""

from __future__ import annotations

import os
import threading
import time


class HealthWarningBase(UserWarning):
    """Base class for structured worker-health warnings."""

    def __init__(self, rank: int, detail: str):
        self.rank = rank
        self.detail = detail
        super().__init__(f"worker {rank}: {detail}")


class HeartbeatLossWarning(HealthWarningBase):
    """A worker's heartbeats stopped arriving."""


class StallWarning(HealthWarningBase):
    """A worker heartbeats but reports no execution progress."""


class StragglerWarning(HealthWarningBase):
    """A worker's superstep lags the rest of the gang."""


class WorkerVitals:
    """Per-process execution progress, sampled by the heartbeat thread.

    Written from the execution thread (superstep hooks), read from the
    heartbeat thread; single attribute stores are atomic under the GIL,
    so no lock is needed.
    """

    def __init__(self):
        self.rank = 0
        self.pid = os.getpid()
        self.job = None
        self.superstep = -1
        self.rss_bytes = 0
        self.last_progress_s = time.perf_counter()

    def configure(self, rank: int) -> None:
        self.rank = rank
        self.pid = os.getpid()

    def begin_job(self, job) -> None:
        self.job = job
        self.superstep = -1
        self.last_progress_s = time.perf_counter()

    def end_job(self) -> None:
        self.job = None
        self.last_progress_s = time.perf_counter()

    def progress(self, superstep: int, rss_bytes: int | None = None) -> None:
        self.superstep = superstep
        if rss_bytes is not None:
            self.rss_bytes = rss_bytes
        self.last_progress_s = time.perf_counter()

    def heartbeat(self, interval_s: float) -> dict:
        """One picklable heartbeat sample of the current vitals.

        Stamped *before* sampling: a beat that reads a job is stamped
        before that job's ``end_job``, so it is older than the farewell
        beat sampled after it, however late it is delivered.
        """
        sent_s = time.perf_counter()
        return {
            "rank": self.rank,
            "pid": self.pid,
            "job": self.job,
            "superstep": self.superstep,
            "rss_bytes": self.rss_bytes,
            "last_progress_s": self.last_progress_s,
            "sent_s": sent_s,
            "interval_s": interval_s,
        }


#: this process's vitals; pool workers configure it after fork
VITALS = WorkerVitals()


class HealthMonitor:
    """Parent-side heartbeat ledger and straggler/stall detector.

    Thresholds scale with the heartbeat cadence each sample reports:
    heartbeats older than ``loss_factor`` intervals mean the signal is
    lost; progress older than ``stall_after_s`` means the worker is
    stalled; a rank ``skew_threshold`` supersteps behind the front
    runner for at least ``skew_grace_s`` (while the gang progresses) is
    a straggler.  Both skew knobs absorb sampling jitter: heartbeats
    from different ranks are taken at different instants, so when
    supersteps are much faster than the cadence a healthy lockstep
    gang can *appear* many supersteps apart for up to one beat — the
    grace period makes the lag prove it persists before it warns.
    ``check`` returns *newly raised* findings only — a finding re-arms
    when its rank recovers.

    Thread-safe: the gather loop ingests while a monitor UI snapshots.
    """

    def __init__(self, size: int, loss_factor: float = 4.0,
                 stall_after_s: float = 2.0, skew_threshold: int = 4,
                 skew_grace_s: float = 0.5):
        self.size = size
        self.loss_factor = loss_factor
        self.stall_after_s = stall_after_s
        self.skew_threshold = skew_threshold
        self.skew_grace_s = skew_grace_s
        self._lock = threading.Lock()
        self._latest: dict[int, dict] = {}
        self._seen_s: dict[int, float] = {}
        self._active: dict[tuple, HealthWarningBase] = {}
        #: when each rank's superstep lag first crossed the threshold
        self._lag_since: dict[int, float] = {}

    @property
    def heartbeats_seen(self) -> bool:
        with self._lock:
            return bool(self._latest)

    def observe(self, heartbeat: dict, now: float | None = None) -> None:
        """Ingest one heartbeat message.

        A beat older than the one held for its rank is dropped: the
        heartbeat thread can build an in-job beat and deliver it after
        the farewell beat, which would make an idle rank look silent
        and stalled in a job it has finished.
        """
        now = time.perf_counter() if now is None else now
        with self._lock:
            held = self._latest.get(heartbeat["rank"])
            if held is not None and heartbeat["sent_s"] < held["sent_s"]:
                return
            self._latest[heartbeat["rank"]] = heartbeat
            self._seen_s[heartbeat["rank"]] = now

    def _resolve(self, rank: int, cls) -> None:
        self._active.pop((rank, cls), None)

    def _raise_once(self, findings, rank, cls, detail) -> None:
        key = (rank, cls)
        if key not in self._active:
            warning = cls(rank, detail)
            self._active[key] = warning
            findings.append(warning)

    def check(self, now: float | None = None) -> list:
        """Evaluate current vitals; return newly raised warnings."""
        now = time.perf_counter() if now is None else now
        findings: list = []
        with self._lock:
            if not self._latest:
                return findings
            active_steps = [
                hb["superstep"] for hb in self._latest.values()
                if hb["job"] is not None
            ]
            front = max(active_steps, default=-1)
            for rank in sorted(self._latest):
                heartbeat = self._latest[rank]
                if heartbeat["job"] is None:
                    # idle ranks go silent on purpose: the sender is
                    # paused between jobs after a farewell beat, so
                    # neither silence nor progress age means anything
                    self._resolve(rank, HeartbeatLossWarning)
                    self._resolve(rank, StallWarning)
                    self._resolve(rank, StragglerWarning)
                    self._lag_since.pop(rank, None)
                    continue
                interval = heartbeat.get("interval_s") or 0.5
                beat_age = now - self._seen_s[rank]
                if beat_age > self.loss_factor * interval:
                    self._raise_once(
                        findings, rank, HeartbeatLossWarning,
                        f"no heartbeat for {beat_age:.1f}s "
                        f"(cadence {interval:.2f}s); last seen in job "
                        f"{heartbeat['job']} superstep "
                        f"{heartbeat['superstep']}",
                    )
                else:
                    self._resolve(rank, HeartbeatLossWarning)
                progress_age = now - heartbeat["last_progress_s"]
                if progress_age > self.stall_after_s:
                    self._raise_once(
                        findings, rank, StallWarning,
                        f"no progress for {progress_age:.1f}s in job "
                        f"{heartbeat['job']} (stuck at superstep "
                        f"{heartbeat['superstep']})",
                    )
                else:
                    self._resolve(rank, StallWarning)
                lag = front - heartbeat["superstep"]
                if lag >= self.skew_threshold:
                    lag_since = self._lag_since.setdefault(rank, now)
                    if now - lag_since >= self.skew_grace_s:
                        self._raise_once(
                            findings, rank, StragglerWarning,
                            f"superstep {heartbeat['superstep']} lags the "
                            f"front runner ({front}) by {lag} "
                            f"for {now - lag_since:.1f}s",
                        )
                else:
                    self._lag_since.pop(rank, None)
                    self._resolve(rank, StragglerWarning)
        return findings

    def emit(self, now: float | None = None) -> list:
        """Run :meth:`check` and ``warnings.warn`` each new finding."""
        import warnings as _warnings
        findings = self.check(now)
        for finding in findings:
            _warnings.warn(finding, stacklevel=2)
        return findings

    def context(self, now: float | None = None) -> str:
        """One-line health summary, appended to crash messages."""
        now = time.perf_counter() if now is None else now
        with self._lock:
            if not self._latest:
                return ""
            parts = []
            for rank in sorted(self._latest):
                heartbeat = self._latest[rank]
                beat_age = now - self._seen_s[rank]
                parts.append(
                    f"rank {rank}: superstep {heartbeat['superstep']}, "
                    f"heartbeat {beat_age:.1f}s ago"
                )
            return "; ".join(parts)

    def snapshot(self, now: float | None = None) -> list[dict]:
        """Per-rank status rows for the live monitor table."""
        now = time.perf_counter() if now is None else now
        with self._lock:
            rows = []
            for rank in range(self.size):
                heartbeat = self._latest.get(rank)
                if heartbeat is None:
                    rows.append({
                        "rank": rank, "pid": None, "job": None,
                        "superstep": None, "rss_bytes": 0,
                        "progress_age_s": None, "beat_age_s": None,
                        "status": "no heartbeat yet",
                    })
                    continue
                status = "ok" if heartbeat["job"] is not None else "idle"
                for (rank_key, cls), warning in self._active.items():
                    if rank_key == rank:
                        status = cls.__name__.replace("Warning", "").lower()
                rows.append({
                    "rank": rank,
                    "pid": heartbeat["pid"],
                    "job": heartbeat["job"],
                    "superstep": heartbeat["superstep"],
                    "rss_bytes": heartbeat["rss_bytes"],
                    "progress_age_s": now - heartbeat["last_progress_s"],
                    "beat_age_s": now - self._seen_s[rank],
                    "status": status,
                })
            return rows


class HeartbeatSender:
    """Background thread shipping vitals over a control queue.

    Daemonized and idempotent to start; ``pause``/``resume`` gate the
    sends so an idle worker does not flood the queue between jobs (the
    first beat after ``resume`` goes out immediately).  ``stop`` exists
    for fault-injection tests that simulate heartbeat loss.
    """

    def __init__(self, queue, vitals, interval_s: float = 0.5):
        self.queue = queue
        self.vitals = vitals
        self.interval_s = interval_s
        self._wake = threading.Event()
        self._stopped = threading.Event()
        self._sending = threading.Event()
        self._thread = None

    def start(self) -> None:
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="repro-heartbeat", daemon=True
            )
            self._thread.start()

    def resume(self, interval_s: float | None = None) -> None:
        if interval_s is not None:
            self.interval_s = interval_s
        self._sending.set()
        self._wake.set()
        self.start()

    def pause(self) -> None:
        self._sending.clear()

    def stop(self) -> None:
        self._stopped.set()
        self._wake.set()

    def _run(self) -> None:
        while not self._stopped.is_set():
            if self._sending.is_set():
                try:
                    self.queue.put(
                        ("hb", None, self.vitals.rank,
                         self.vitals.heartbeat(self.interval_s))
                    )
                except Exception:
                    return  # queue torn down: the pool is shutting down
            self._wake.wait(self.interval_s)
            self._wake.clear()

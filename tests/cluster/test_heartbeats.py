"""Worker heartbeats: the monitor's findings and their ordering.

The contract under test: a sick worker surfaces as a *structured
warning* (heartbeat loss, stall, straggler) while the job is still
running — strictly before the pool's gather deadline escalates the
situation to a :class:`WorkerCrash` — and healthy or idle ranks never
warn at all.
"""

import queue
import time
import warnings

import pytest

from repro.cluster.backends import WorkerCrash
from repro.cluster.pool import WorkerPool
from repro.observability.health import (
    HealthMonitor,
    HeartbeatLossWarning,
    HeartbeatSender,
    StallWarning,
    StragglerWarning,
    WorkerVitals,
)

def _beat(rank, job=1, superstep=0, progress_s=0.0, sent_s=0.0,
          interval=0.1, rss=1 << 20):
    return {
        "rank": rank, "pid": 1000 + rank, "job": job,
        "superstep": superstep, "rss_bytes": rss,
        "last_progress_s": progress_s, "sent_s": sent_s,
        "interval_s": interval,
    }


# ----------------------------------------------------------------------
# HealthMonitor unit behavior (synthetic clock)


def test_loss_raises_once_and_rearms_after_recovery():
    monitor = HealthMonitor(size=1)
    monitor.observe(_beat(0), now=0.0)
    assert monitor.check(now=0.2) == []  # within 4 intervals
    first = monitor.check(now=1.0)
    assert [type(w) for w in first] == [HeartbeatLossWarning]
    assert first[0].rank == 0
    assert monitor.check(now=2.0) == []  # raise-once while sick
    monitor.observe(_beat(0, progress_s=2.1), now=2.1)  # recovery
    assert monitor.check(now=2.15) == []
    rearmed = [type(w) for w in monitor.check(now=9.0)]
    assert HeartbeatLossWarning in rearmed  # re-armed after recovery


def test_stall_detected_by_progress_age():
    monitor = HealthMonitor(size=1, stall_after_s=2.0)
    monitor.observe(_beat(0, progress_s=0.0, sent_s=1.0, interval=1.0),
                    now=1.0)
    assert monitor.check(now=1.5) == []
    monitor.observe(_beat(0, progress_s=0.0, sent_s=2.2, interval=1.0),
                    now=2.2)
    findings = monitor.check(now=2.3)
    assert [type(w) for w in findings] == [StallWarning]
    assert "no progress" in str(findings[0])


def test_a_beat_delivered_after_the_farewell_is_dropped():
    """The heartbeat thread can build an in-job beat and deliver it
    after the farewell beat; the idle rank must stay idle, not turn
    silent and stalled in the job it has finished."""
    monitor = HealthMonitor(size=1, stall_after_s=0.3)
    monitor.observe(_beat(0, job=1, sent_s=0.05), now=0.05)
    monitor.observe(_beat(0, job=None, progress_s=0.06, sent_s=0.06),
                    now=0.06)
    monitor.observe(_beat(0, job=1, sent_s=0.055), now=0.07)
    assert monitor.check(now=5.0) == []
    assert monitor.snapshot(now=5.0)[0]["status"] == "idle"


def test_straggler_lags_the_front_runner():
    monitor = HealthMonitor(size=3, skew_threshold=4, skew_grace_s=0.5)
    monitor.observe(_beat(0, superstep=9, interval=1.0), now=0.0)
    monitor.observe(_beat(1, superstep=8, interval=1.0), now=0.0)
    monitor.observe(_beat(2, superstep=2, interval=1.0), now=0.0)
    # first sighting only starts the grace clock: one stale sample
    # between asynchronous beats is not evidence of a straggler
    assert monitor.check(now=0.1) == []
    # still behind once the grace period has elapsed — now it warns
    monitor.observe(_beat(2, superstep=2, progress_s=0.7, interval=1.0),
                    now=0.7)
    findings = monitor.check(now=0.8)
    assert [type(w) for w in findings] == [StragglerWarning]
    assert findings[0].rank == 2
    assert "lags the front runner" in str(findings[0])
    # catching up resolves it and restarts the grace clock
    monitor.observe(_beat(2, superstep=8, progress_s=0.9, interval=1.0),
                    now=0.9)
    assert monitor.check(now=1.0) == []


def test_idle_ranks_are_exempt():
    monitor = HealthMonitor(size=2)
    monitor.observe(_beat(0, superstep=9), now=0.0)
    monitor.observe(_beat(1, job=None, superstep=3), now=0.0)
    # rank 1 finished (farewell beat): hours of silence and a huge
    # superstep lag mean nothing, and it does not drag the front back
    findings = monitor.check(now=3600.0)
    assert all(w.rank == 0 for w in findings)
    rows = monitor.snapshot(now=3600.0)
    assert rows[1]["status"] == "idle"


def test_snapshot_before_any_heartbeat():
    monitor = HealthMonitor(size=2)
    rows = monitor.snapshot()
    assert [row["status"] for row in rows] == ["no heartbeat yet"] * 2
    assert monitor.heartbeats_seen is False
    assert monitor.context() == ""


def test_snapshot_carries_vitals_and_status():
    monitor = HealthMonitor(size=1, stall_after_s=1.0)
    monitor.observe(_beat(0, superstep=4, progress_s=0.0, sent_s=5.0),
                    now=5.0)
    monitor.check(now=5.05)
    rows = monitor.snapshot(now=5.05)
    assert rows[0]["superstep"] == 4
    assert rows[0]["rss_bytes"] == 1 << 20
    assert rows[0]["status"] == "stall"
    assert "rank 0" in monitor.context(now=5.05)


# ----------------------------------------------------------------------
# vitals + sender


def test_vitals_lifecycle():
    vitals = WorkerVitals()
    vitals.configure(7)
    vitals.begin_job(3)
    assert vitals.superstep == -1
    vitals.progress(2, rss_bytes=123)
    beat = vitals.heartbeat(0.25)
    assert beat["rank"] == 7 and beat["job"] == 3
    assert beat["superstep"] == 2 and beat["rss_bytes"] == 123
    assert beat["interval_s"] == 0.25
    vitals.end_job()
    assert vitals.heartbeat(0.25)["job"] is None


def test_sender_pause_resume():
    q = queue.Queue()
    vitals = WorkerVitals()
    vitals.configure(5)
    sender = HeartbeatSender(q, vitals, interval_s=0.02)
    try:
        sender.resume()
        deadline = time.monotonic() + 2.0
        beats = []
        while len(beats) < 3 and time.monotonic() < deadline:
            try:
                beats.append(q.get(timeout=0.1))
            except queue.Empty:
                pass
        assert len(beats) >= 3
        kind, jid, rank, body = beats[0]
        assert (kind, jid, rank) == ("hb", None, 5)
        assert body["rank"] == 5
        sender.pause()
        time.sleep(0.1)
        while not q.empty():
            q.get_nowait()
        time.sleep(0.1)
        assert q.empty()  # paused: no beats between jobs
    finally:
        sender.stop()


# ----------------------------------------------------------------------
# pool integration: warnings fire before (or instead of) the crash


class _HeartbeatJob:
    """Scriptable pool job body that heartbeats like a telemetry plan."""

    heartbeat_interval = 0.05

    def __init__(self, sick_rank=0, mode="none", sick_s=0.0, healthy_s=0.05):
        self.sick_rank = sick_rank
        self.mode = mode
        self.sick_s = sick_s
        self.healthy_s = healthy_s

    def __call__(self, cluster):
        from repro.cluster.pool import stop_heartbeats
        from repro.observability.health import VITALS
        if cluster.rank == self.sick_rank:
            if self.mode == "lose":
                time.sleep(0.3)  # let a few beats out first
                stop_heartbeats()
                time.sleep(self.sick_s)
            elif self.mode == "stall":
                time.sleep(self.sick_s)
            elif self.mode == "lag":
                VITALS.progress(0)
                time.sleep(self.sick_s)
        else:
            if self.mode == "lag":
                for step in range(10):
                    VITALS.progress(step)
                    time.sleep(self.healthy_s / 10)
            else:
                time.sleep(self.healthy_s)
        return {"rank": cluster.rank}


def _run_catching(pool, job):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        payloads = pool.run_job(job)
    return payloads, [w.message for w in caught]


def test_stall_warns_before_completion():
    pool = WorkerPool(2, timeout=30.0)
    try:
        pool.monitor.stall_after_s = 0.3
        payloads, caught = _run_catching(
            pool, _HeartbeatJob(sick_rank=0, mode="stall", sick_s=1.2)
        )
        # the job completed fine — yet the stall was already reported
        assert [p["rank"] for p in payloads] == [0, 1]
        stalls = [w for w in caught if isinstance(w, StallWarning)]
        assert stalls and all(w.rank == 0 for w in stalls)
        # the healthy rank finished, went idle, and never warned
        assert all(w.rank == 0 for w in caught)
    finally:
        pool.close()


def test_straggler_warns_on_superstep_skew():
    pool = WorkerPool(2, timeout=30.0)
    try:
        # the healthy rank must keep running past the skew grace
        # period, otherwise it goes idle and stops defining the front
        payloads, caught = _run_catching(
            pool,
            _HeartbeatJob(sick_rank=0, mode="lag", sick_s=2.0,
                          healthy_s=1.5),
        )
        assert [p["rank"] for p in payloads] == [0, 1]
        stragglers = [w for w in caught
                      if isinstance(w, StragglerWarning)]
        assert stragglers and all(w.rank == 0 for w in stragglers)
    finally:
        pool.close()


def test_heartbeat_loss_warns_before_deadline_crash():
    # gather deadline is timeout * 1.5 + 5.0; keep it tight
    pool = WorkerPool(2, timeout=0.2)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(WorkerCrash) as crash:
                pool.run_job(
                    _HeartbeatJob(sick_rank=0, mode="lose", sick_s=60.0)
                )
        losses = [w.message for w in caught
                  if isinstance(w.message, HeartbeatLossWarning)]
        # the loss was warned while waiting — before the escalation —
        # and the crash message carries the last-known health context
        assert losses and all(w.rank == 0 for w in losses)
        assert "gave up waiting" in str(crash.value)
        assert "last heartbeats" in str(crash.value)
        assert "rank 0" in str(crash.value)
    finally:
        pool.close(force=True)

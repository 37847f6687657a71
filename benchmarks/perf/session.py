"""A workload's reusable environment, and what the OS says it costs."""

from __future__ import annotations

import gc
import os
import time
import traceback
from dataclasses import dataclass, field

from repro import ExecutionEnvironment
from repro.cluster import PoolBackend
from repro.runtime.config import RuntimeConfig

from benchmarks.perf.workloads import PARALLELISM

#: a pool job that has not finished after this long is a failed job;
#: shorter than a round's own time limit, so the round lives to report it
POOL_TIMEOUT_S = 15.0
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def peak_rss_mib(pids) -> float:
    """Sum of ``VmHWM`` over ``pids``, in MiB."""
    total_kib = 0
    for pid in pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
                    break
    return total_kib / 1024.0


def cpu_seconds(pids) -> float:
    """User + system CPU time consumed so far by ``pids``."""
    ticks = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            # the command name may hold spaces; fields resume after ')'
            fields = stat.read().rsplit(")", 1)[1].split()
        ticks += int(fields[11]) + int(fields[12])
    return ticks / _CLOCK_TICKS


def noop_program(cluster):
    return None, None


@dataclass
class Tally:
    """Jobs attempted and failed, over every session of one process."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)


class Session:
    """One environment, reused by a workload's jobs as a client would."""

    def __init__(self, workload, inputs, tally, trace=False, backend=None,
                 budgeted=True):
        self.workload = workload
        self.inputs = inputs
        self.tally = tally
        # pinned explicitly; every other field keeps its default
        self.config = RuntimeConfig(
            check_invariants=False, trace=trace, telemetry=False,
            memory_budget_bytes=(
                workload.memory_budget_bytes if budgeted else None
            ),
        )
        backend = backend or workload.backend
        self.env = ExecutionEnvironment(
            PARALLELISM, config=self.config,
            backend=(PoolBackend(timeout=POOL_TIMEOUT_S)
                     if backend == "pool" else backend),
        )
        if backend == "pool":
            # the pool forks lazily; an empty program brings it up so
            # its cost is not charged to the cold job
            self.env.backend.run_program(noop_program, PARALLELISM)
            # one worker per CPU, as ``taskset`` would: left to the
            # scheduler, two workers sharing a CPU for a while made job
            # times bimodal (0.8 s / 1.1 s on cc-longtail-pool)
            cpus = sorted(os.sched_getaffinity(0))
            for rank, pid in enumerate(self.env.backend.pool.worker_pids):
                os.sched_setaffinity(pid, {cpus[rank % len(cpus)]})

    @property
    def pids(self) -> list[int]:
        pool = getattr(self.env.backend, "pool", None)
        workers = pool.worker_pids if pool is not None else []
        return [os.getpid(), *workers]

    def run_job(self):
        """One job: ``(wall seconds, result)``; the result is ``None``
        when the job raised, which is recorded as a failure."""
        gc.collect()
        self.tally.attempted += 1
        started = time.perf_counter()
        try:
            result = self.workload.job(self.env, self.inputs)
        except Exception:
            self.tally.failures.append(traceback.format_exc(limit=4))
            result = None
        return time.perf_counter() - started, result

    def verify(self, result, expected) -> bool:
        """Record a failure unless ``result`` matches the oracle."""
        if result is None:
            return False  # run_job recorded it
        if self.workload.matches(result, expected):
            return True
        self.tally.failures.append("result differs from the reference")
        return False

    def close(self):
        self.env.close()

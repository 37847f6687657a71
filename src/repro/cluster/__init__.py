"""Pluggable execution backends over one cluster-context abstraction.

``repro.cluster`` makes the engine/abstraction split of the paper's
Nephele substrate real: the same plans and driver programs run on the
in-process simulator (:class:`SimulatedBackend`, the reference) or on a
**pool** of forked worker processes exchanging frames over one pipe per
worker pair (:class:`PoolBackend`) — with
barrier-synchronized supersteps and bitwise-identical results and
logical counters on both.  Backend name ``"pool"`` keeps the workers
across jobs; ``"multiprocess"`` (:class:`MultiprocessBackend`) is the
same pool forked per job and closed after it.
"""

from repro.cluster.backends import (
    BACKENDS,
    ExecutionBackend,
    SimulatedBackend,
    WorkerCrash,
    resolve_backend,
)
from repro.cluster.context import LOCAL, ClusterContext, LocalCluster, WorkerCluster
from repro.cluster.fabric import Endpoint, Fabric, FabricTimeout
from repro.cluster.pool import MultiprocessBackend, PoolBackend, WorkerPool

__all__ = [
    "BACKENDS",
    "ClusterContext",
    "Endpoint",
    "ExecutionBackend",
    "Fabric",
    "FabricTimeout",
    "LOCAL",
    "LocalCluster",
    "MultiprocessBackend",
    "PoolBackend",
    "SimulatedBackend",
    "WorkerCluster",
    "WorkerCrash",
    "WorkerPool",
    "resolve_backend",
]

"""Driver context for the Spark-like engine."""

from __future__ import annotations

from repro.cluster.context import LOCAL
from repro.runtime import channels
from repro.runtime.config import RuntimeConfig
from repro.runtime.metrics import MetricsCollector
from repro.systems.sparklike.rdd import RDD


class SparkLikeContext:
    """One driver session: fixes parallelism, owns metrics, makes RDDs.

    Under the multiprocess backend the driver is *replicated*: every
    worker runs the same deterministic driver program with a
    :class:`~repro.cluster.context.WorkerCluster` as ``cluster``, its
    RDD partitions localized to the worker's rank, and shuffles/actions
    crossing workers through the cluster's collectives.
    """

    def __init__(self, parallelism: int = 4, metrics: MetricsCollector = None,
                 config: RuntimeConfig = None, cluster=None):
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        self.parallelism = parallelism
        self.cluster = cluster or LOCAL
        self.config = config or RuntimeConfig()
        if metrics is None:
            metrics = MetricsCollector.for_config(
                self.config, rank=self.cluster.rank
            )
        self.metrics = metrics

    def parallelize(self, records, name: str = "parallelize") -> RDD:
        """Distribute an in-memory collection round-robin."""
        parts = self.cluster.localize(
            channels.round_robin(list(records), self.parallelism)
        )
        return RDD(self, parents=(), compute=lambda _inputs: parts, name=name)

    # Driver-side superstep scoping, used by iterative programs so the
    # harness can report per-iteration times/messages like Figure 8/11.
    def begin_iteration(self, number: int):
        self.metrics.begin_superstep(number)

    def end_iteration(self, workset_size: int = 0, delta_size: int = 0):
        # replicated drivers log *global* sizes (computed via count()
        # collectives); only the coordinator keeps them, so the
        # superstep-aligned merge across workers sums back to exactly
        # the simulated driver's numbers
        if not self.cluster.is_coordinator:
            workset_size = 0
            delta_size = 0
        return self.metrics.end_superstep(
            workset_size=workset_size, delta_size=delta_size
        )

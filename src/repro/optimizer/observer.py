"""Runtime cardinality observation: measured stats for the next plan.

The :class:`CardinalityObserver` closes the loop between execution and
optimization (ROADMAP item 3): after every run the environment feeds the
executed plan and the session's merged
:class:`~repro.runtime.metrics.MetricsCollector` into
:meth:`CardinalityObserver.ingest`, which derives per-operator observed
output cardinalities, distinct-key counts, and filter selectivities.
The next compilation in the same environment hands them to
:class:`~repro.optimizer.statistics.Statistics`, where measured truth
replaces the textbook defaults.

Design constraints, in order:

* **Near-zero overhead.**  Nothing runs on the data path.  The observer
  piggybacks entirely on counters the runtime already maintains —
  ``records_processed`` is keyed by operator name, and records *into*
  an operator are records *out of* its producer, so output sizes fall
  out of the existing bookkeeping at ingest time (one dict pass per
  run, driver-side only).
* **Backend invariance.**  Only *logical* counters are consulted.  They
  are bitwise identical across the simulated / multiprocess / pool
  backends, so a warm environment compiles the same plan no matter
  where the previous run executed — the cross-backend audit holds even
  for multi-submission sessions.

Iteration bodies are deliberately *excluded* from ingestion: their
processed counts are summed over supersteps, which would mislead the
static estimator.  The per-superstep workset/delta trajectory stays in
``metrics.iteration_log``.

Observations are keyed by operator *name* so they survive program
rebuilds (node ids do not).  Default names embed the node id — give
operators stable names (``name=...``) to carry stats across
resubmissions of a rebuilt pipeline.
"""

from __future__ import annotations

from collections import Counter

from repro.dataflow.contracts import Contract
from repro.dataflow.graph import iteration_body_nodes

#: unary record-wise contracts: their processed count equals their sole
#: input's output cardinality, which makes them reliable probes
_RECORD_WISE = (Contract.MAP, Contract.FLAT_MAP, Contract.FILTER)

#: keyed aggregations: their output cardinality equals the distinct key
#: count of their input
_KEYED_AGGREGATIONS = (
    Contract.REDUCE,
    Contract.REDUCE_GROUP,
    Contract.COGROUP,
    Contract.INNER_COGROUP,
)


class CardinalityObserver:
    """Derives observed per-operator statistics from logical counters.

    Attributes
    ----------
    sizes:
        Observed output cardinality per operator name (last run wins).
    selectivities:
        Observed output/input ratio per FILTER name.
    key_counts:
        Observed distinct-key counts per keyed-aggregation name (the
        aggregation's output size *is* its input's key count).
    """

    def __init__(self):
        self._last_processed: Counter = Counter()
        self.sizes: dict[str, float] = {}
        self.selectivities: dict[str, float] = {}
        self.key_counts: dict[str, int] = {}
        self.runs = 0

    def ingest(self, exec_plan, metrics) -> None:
        """Fold one finished run's counters into the observed stats.

        ``metrics`` accumulates across runs, so ingestion works on the
        delta since the previous ingest; keys present with a zero delta
        still count as observed (an operator that ran and produced
        nothing is a real measurement, e.g. a fully selective filter).
        """
        logical_plan = exec_plan.logical_plan
        current = metrics.records_processed
        delta = {
            name: total - self._last_processed.get(name, 0)
            for name, total in current.items()
        }
        self._last_processed = Counter(current)

        nodes = logical_plan.nodes()
        body_ids: set[int] = set()
        for node in nodes:
            if node.is_iteration():
                body_ids.update(b.id for b in iteration_body_nodes(node))
        outer = [n for n in nodes if n.id not in body_ids]
        consumers: dict[int, list] = {}
        for node in outer:
            for producer in node.inputs:
                consumers.setdefault(producer.id, []).append(node)

        for node in outer:
            node_consumers = consumers.get(node.id, [])
            if len(node_consumers) != 1:
                continue  # multi-consumer counts are not attributable
            consumer = node_consumers[0]
            if consumer.contract not in _RECORD_WISE:
                continue
            observed_out = delta.get(consumer.name)
            if observed_out is None or observed_out < 0:
                continue
            self.sizes[node.name] = float(observed_out)
            if node.contract in _KEYED_AGGREGATIONS:
                self.key_counts[node.name] = int(observed_out)
            if node.contract is Contract.FILTER:
                observed_in = delta.get(node.name)
                if observed_in:
                    self.selectivities[node.name] = (
                        observed_out / observed_in
                    )
        self.runs += 1

    def snapshot(self) -> dict:
        """Plain-dict view for explain()/visualize and tests."""
        return {
            "runs": self.runs,
            "sizes": dict(self.sizes),
            "selectivities": dict(self.selectivities),
            "key_counts": dict(self.key_counts),
        }

"""Cardinality estimation for the cost model.

Sources carry exact sizes (they are in-memory collections); everything
else uses textbook default selectivities, overridable per operator with
``DataSet.with_estimated_size``.  The estimates only steer strategy
choices — correctness never depends on them.

Three refinements over the textbook defaults (optimizer v2):

* **Observed cardinalities.**  When the environment has executed a plan
  before, the :class:`~repro.optimizer.observer.CardinalityObserver`
  hands measured per-operator output sizes (and filter selectivities)
  to the next compilation, keyed by operator *name*.  Measured truth is
  preferred over every static rule, including user hints — give your
  operators stable names (``name=...``) to benefit across program
  rebuilds.  Part-store sources already arrive with exact sizes: the
  manifest's per-part cardinality stats rows are summed into
  ``estimated_size`` at :meth:`ExecutionEnvironment.from_store` time.
* **Chain-composed filter selectivity.**  Stacked record-wise filters
  are fused into one :class:`~repro.runtime.plan.FusedChain` by the
  chainer, but sizes used to be estimated per logical node, compounding
  ``0.5`` per filter — a run of four filters was charged ``0.0625``
  even though stacked predicates are almost always correlated.  We now
  estimate through the run as a single composed selectivity with
  exponential backoff: the *d*-th consecutive filter contributes
  ``FILTER_SELECTIVITY ** (CHAIN_BACKOFF ** d)``, so four stacked
  filters compose to ``≈0.27`` instead of ``0.0625``.
* **Placeholder sizes** for iteration bodies are injected by the
  enumerator (the dynamic path is weighted by the expected iteration
  count there, not estimated here).
"""

from __future__ import annotations

from repro.dataflow.contracts import Contract

#: default output/input ratio per contract
FILTER_SELECTIVITY = 0.5
FLAT_MAP_EXPANSION = 2.0
REDUCE_COMPRESSION = 0.5
JOIN_MATCH_RATE = 1.0  # FK-join assumption: |out| ~ max(|L|, |R|)

DEFAULT_SIZE = 1_000.0

#: exponential backoff for stacked filters in one record-wise run: the
#: d-th consecutive filter is damped to ``FILTER_SELECTIVITY ** (CHAIN_BACKOFF ** d)``
CHAIN_BACKOFF = 0.5

#: contracts the chainer may fuse into a record-wise run
_RECORD_WISE = (Contract.MAP, Contract.FLAT_MAP, Contract.FILTER)


class Statistics:
    """Memoized size estimator over a logical plan region.

    Parameters
    ----------
    placeholder_sizes:
        Injected sizes per placeholder node id (iteration bodies).
    observed:
        Measured output cardinality per operator *name*, from a
        previous run's :class:`CardinalityObserver`.  Preferred over
        every static rule.
    selectivities:
        Measured output/input ratio per FILTER name; used when the
        filter itself has no observed output size (e.g. its input size
        changed between runs).
    """

    def __init__(self, placeholder_sizes=None, observed=None,
                 selectivities=None):
        self._memo: dict[int, float] = {}
        self.placeholder_sizes = placeholder_sizes or {}
        self.observed: dict[str, float] = dict(observed or {})
        self.selectivities: dict[str, float] = dict(selectivities or {})

    def size(self, node) -> float:
        cached = self._memo.get(node.id)
        if cached is not None:
            return cached
        estimate = self._estimate(node)
        self._memo[node.id] = estimate
        return estimate

    def _estimate(self, node) -> float:
        if not node.is_placeholder():
            measured = self.observed.get(node.name)
            if measured is not None:
                return float(measured)
        if node.estimated_size is not None:
            return float(node.estimated_size)
        contract = node.contract
        if node.is_placeholder():
            return float(self.placeholder_sizes.get(node.id, DEFAULT_SIZE))
        if contract is Contract.SOURCE:
            return float(len(node.data or ()))
        if contract is Contract.SINK:
            return self.size(node.inputs[0])
        if contract in (Contract.BULK_ITERATION, Contract.DELTA_ITERATION):
            return self.size(node.inputs[0])
        if contract is Contract.MAP:
            return self.size(node.inputs[0])
        if contract is Contract.FLAT_MAP:
            return self.size(node.inputs[0]) * FLAT_MAP_EXPANSION
        if contract is Contract.FILTER:
            upstream = node.inputs[0]
            selectivity = self.selectivities.get(node.name)
            if selectivity is None:
                depth = self._chain_filter_depth(upstream)
                selectivity = FILTER_SELECTIVITY ** (CHAIN_BACKOFF ** depth)
            return self.size(upstream) * selectivity
        if contract in (Contract.REDUCE, Contract.REDUCE_GROUP):
            return max(1.0, self.size(node.inputs[0]) * REDUCE_COMPRESSION)
        if contract is Contract.UNION:
            return self.size(node.inputs[0]) + self.size(node.inputs[1])
        if contract is Contract.CROSS:
            return self.size(node.inputs[0]) * self.size(node.inputs[1])
        if contract in (Contract.MATCH, Contract.SOLUTION_JOIN):
            left = self.size(node.inputs[0])
            right = self._input_or_default(node, 1, left)
            return max(left, right) * JOIN_MATCH_RATE
        if contract in (
            Contract.COGROUP, Contract.INNER_COGROUP, Contract.SOLUTION_COGROUP,
        ):
            left = self.size(node.inputs[0])
            right = self._input_or_default(node, 1, left)
            return max(1.0, max(left, right) * REDUCE_COMPRESSION)
        return DEFAULT_SIZE

    def filter_selectivity(self, filter_node) -> float:
        """Best selectivity estimate for one FILTER node in isolation.

        Observed ratio when a previous run measured it, else the
        textbook default.  Used by the enumerator to discount the size
        of a join input whose ship a filter was pushed below.
        """
        measured = self.selectivities.get(filter_node.name)
        if measured is not None:
            return float(measured)
        return FILTER_SELECTIVITY

    def _chain_filter_depth(self, node) -> int:
        """Filters already applied upstream in the same record-wise run.

        Walks the unary record-wise run the chainer would fuse; stacked
        filters in one run share one composed selectivity instead of
        compounding ``FILTER_SELECTIVITY`` per node.
        """
        depth = 0
        while node.contract in _RECORD_WISE and node.inputs:
            if node.contract is Contract.FILTER:
                depth += 1
            node = node.inputs[0]
        return depth

    def _input_or_default(self, node, index, default) -> float:
        if index >= len(node.inputs):
            return default
        producer = node.inputs[index]
        if producer.contract is Contract.SOLUTION_SET:
            return float(self.placeholder_sizes.get(producer.id, default))
        return self.size(producer)

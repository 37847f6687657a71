"""The fluent ``DataSet`` API for authoring logical dataflow programs.

Records are tuples; key arguments are field positions (an int or a tuple
of ints).  UDF signatures per operator:

=================  ==========================================================
``map``            ``fn(record) -> record``
``flat_map``       ``fn(record) -> iterable of records``
``filter``         ``fn(record) -> bool``
``reduce_by_key``  ``fn(a, b) -> merged`` — associative & commutative, so the
                   optimizer may apply it as a pre-shuffle combiner
``reduce_group``   ``fn(key, records: list) -> iterable of records``
``join``           ``fn(left, right) -> record | None`` (or an iterable of
                   records when ``flat=True``)
``cogroup``        ``fn(key, left: list, right: list) -> iterable``
``cross``          ``fn(left, right) -> record | None``
=================  ==========================================================

Joining or cogrouping a delta iteration's solution set produces a stateful
operator that probes the partitioned solution-set index directly
(Section 5.3); the solution-set side must be keyed on the iteration's
declared solution key.
"""

from __future__ import annotations

from repro.common.errors import InvalidPlanError
from repro.common.keys import normalize_key_fields
from repro.dataflow.contracts import Contract
from repro.dataflow.graph import LogicalNode


class DataSet:
    """A handle on one logical operator's output within an environment."""

    def __init__(self, env, node):
        self._env = env
        self._node = node

    # ------------------------------------------------------------------
    # plumbing

    @property
    def node(self):
        return self._node

    @property
    def env(self):
        return self._env

    def _wrap(self, node):
        return DataSet(self._env, node)

    def name(self, label):
        """Set a human-readable operator label (returns self)."""
        self._node.name = label
        return self

    def with_forwarded_fields(self, mapping, input_index=0):
        """Declare fields forwarded unmodified by this operator's UDF.

        ``mapping`` is ``{input_field: output_field}``.  Needed for the
        optimizer to preserve partitioning through the operator and for
        microstep key-constancy analysis (Section 5.2).
        """
        self._node.with_forwarded_fields(input_index, mapping)
        return self

    def with_estimated_size(self, size):
        """Override the optimizer's cardinality estimate for this output."""
        self._node.estimated_size = float(size)
        return self

    # ------------------------------------------------------------------
    # record-at-a-time operators

    def map(self, fn, name=None):
        """Record-at-a-time transform."""
        return self._wrap(
            LogicalNode(Contract.MAP, [self._node], udf=fn, name=name)
        )

    def flat_map(self, fn, name=None):
        return self._wrap(
            LogicalNode(Contract.FLAT_MAP, [self._node], udf=fn, name=name)
        )

    def filter(self, fn, name=None, deterministic=True, fields=None):
        """Keep records for which ``fn(record)`` is truthy.

        ``fields`` optionally declares the field positions the predicate
        reads; combined with ``deterministic=True`` (the default
        promise) it lets the optimizer push the filter below a
        downstream join's ship when those fields are identity-forwarded
        from one join input (see :mod:`repro.optimizer.pushdown`).
        Pass ``deterministic=False`` for predicates with side effects or
        hidden state — they are never relocated.
        """
        node = LogicalNode(Contract.FILTER, [self._node], udf=fn, name=name)
        node.deterministic = bool(deterministic)
        if fields is not None:
            node.read_fields = normalize_key_fields(fields)
        return self._wrap(node)

    def union(self, other, name=None):
        self._check_env(other)
        return self._wrap(
            LogicalNode(
                Contract.UNION, [self._node, other._node], name=name
            )
        )

    # ------------------------------------------------------------------
    # keyed operators

    def reduce_by_key(self, key_fields, fn, name=None):
        """Combinable aggregation: merge records of a key group pairwise."""
        node = LogicalNode(
            Contract.REDUCE,
            [self._node],
            udf=fn,
            key_fields=[normalize_key_fields(key_fields)],
            name=name,
        )
        return self._wrap(node)

    def reduce_group(self, key_fields, fn, name=None):
        """General (non-combinable) group transformation."""
        node = LogicalNode(
            Contract.REDUCE_GROUP,
            [self._node],
            udf=fn,
            key_fields=[normalize_key_fields(key_fields)],
            name=name,
        )
        return self._wrap(node)

    def sum_by_key(self, key_fields, value_field, name=None):
        """Per-key sum of one numeric field (a combinable Reduce)."""
        value_field = int(value_field)

        def add(a, b):
            merged = list(a)
            merged[value_field] = a[value_field] + b[value_field]
            return tuple(merged)

        return self.reduce_by_key(key_fields, add, name=name or "sum")

    def min_by_key(self, key_fields, value_field, name=None):
        """Per key, the record with the smallest value in ``value_field``."""
        value_field = int(value_field)
        return self.reduce_by_key(
            key_fields,
            lambda a, b: a if a[value_field] <= b[value_field] else b,
            name=name or "min",
        )

    def max_by_key(self, key_fields, value_field, name=None):
        """Per key, the record with the largest value in ``value_field``."""
        value_field = int(value_field)
        return self.reduce_by_key(
            key_fields,
            lambda a, b: a if a[value_field] >= b[value_field] else b,
            name=name or "max",
        )

    def count_by_key(self, key_fields, name=None):
        """``(key..., count)`` records — the word-count primitive."""
        keys = normalize_key_fields(key_fields)

        def to_counted(record):
            return tuple(record[f] for f in keys) + (1,)

        counted = self.map(to_counted, name="attach_count")
        counted.with_forwarded_fields(
            {f: i for i, f in enumerate(keys)}
        )
        width = len(keys)
        return counted.reduce_by_key(
            tuple(range(width)),
            lambda a, b: a[:width] + (a[width] + b[width],),
            name=name or "count",
        )

    def distinct(self, key_fields=None, name=None):
        """Drop duplicate records (or keep one record per key)."""
        if key_fields is None:
            def dedupe(key, group):
                seen = set()
                for rec in group:
                    if rec not in seen:
                        seen.add(rec)
                        yield rec
            # group on the full record width of the first record is unknown
            # statically; fall back to field 0 grouping plus in-group dedupe.
            return self.reduce_group(0, dedupe, name=name or "distinct")

        def first(key, group):
            yield group[0]

        return self.reduce_group(key_fields, first, name=name or "distinct")

    def join(self, other, left_key, right_key, fn, flat=False, name=None):
        """Equi-join (Match contract); solution-set sides become stateful probes."""
        self._check_env(other)
        if other._node.contract is Contract.SOLUTION_SET:
            return self._solution_join(other, left_key, right_key, fn, flat, name)
        if self._node.contract is Contract.SOLUTION_SET:
            raise InvalidPlanError(
                "use workset.join(solution_set, ...); the solution set must "
                "be the right-hand (stateful) side"
            )
        node = LogicalNode(
            Contract.MATCH,
            [self._node, other._node],
            udf=fn,
            key_fields=[
                normalize_key_fields(left_key),
                normalize_key_fields(right_key),
            ],
            name=name,
        )
        node.flat = flat
        return self._wrap(node)

    def cogroup(self, other, left_key, right_key, fn, inner=False, name=None):
        """CoGroup / InnerCoGroup contract over two inputs.

        Against a solution set, ``inner=True`` (the Figure-5 default
        shape) invokes the UDF only for keys present in the solution
        set; ``inner=False`` also invokes it for unknown keys with an
        empty stored-side list — the anti-join shape semi-naive
        evaluation needs (Section 7.1).
        """
        self._check_env(other)
        if other._node.contract is Contract.SOLUTION_SET:
            return self._solution_cogroup(other, left_key, right_key, fn,
                                          name, inner=inner)
        contract = Contract.INNER_COGROUP if inner else Contract.COGROUP
        node = LogicalNode(
            contract,
            [self._node, other._node],
            udf=fn,
            key_fields=[
                normalize_key_fields(left_key),
                normalize_key_fields(right_key),
            ],
            name=name,
        )
        return self._wrap(node)

    def cross(self, other, fn, name=None):
        self._check_env(other)
        node = LogicalNode(
            Contract.CROSS, [self._node, other._node], udf=fn, name=name
        )
        return self._wrap(node)

    # ------------------------------------------------------------------
    # solution-set operators (Section 5.3)

    def _solution_iteration(self, other):
        iteration = other._node.enclosing_iteration
        return iteration

    def _check_solution_key(self, other, right_key):
        iteration = self._solution_iteration(other)
        right = normalize_key_fields(right_key)
        if right != iteration.solution_key:
            raise InvalidPlanError(
                "solution-set side must be keyed on the iteration's solution "
                f"key {iteration.solution_key}, got {right}"
            )
        return right

    def _solution_join(self, other, left_key, right_key, fn, flat, name):
        right = self._check_solution_key(other, right_key)
        node = LogicalNode(
            Contract.SOLUTION_JOIN,
            [self._node, other._node],
            udf=fn,
            key_fields=[normalize_key_fields(left_key), right],
            name=name or "solution_join",
        )
        node.flat = flat
        node.enclosing_iteration = self._solution_iteration(other)
        return self._wrap(node)

    def _solution_cogroup(self, other, left_key, right_key, fn, name,
                          inner=True):
        right = self._check_solution_key(other, right_key)
        node = LogicalNode(
            Contract.SOLUTION_COGROUP,
            [self._node, other._node],
            udf=fn,
            key_fields=[normalize_key_fields(left_key), right],
            name=name or "solution_cogroup",
        )
        node.inner = inner
        node.enclosing_iteration = self._solution_iteration(other)
        return self._wrap(node)

    # ------------------------------------------------------------------
    # terminal operations

    def output(self, name=None):
        """Attach a sink; the sink's records are available after execution."""
        sink = LogicalNode(Contract.SINK, [self._node], name=name or "sink")
        self._env._register_sink(sink)
        return self._wrap(sink)

    def collect(self):
        """Optimize, execute, and return this dataset's records as a list."""
        return self._env.collect(self)

    def store(self, name) -> list:
        """Execute and persist this dataset in the environment's part
        store under ``name``; returns the written part ids.  Reload it
        with ``env.from_store(name)``."""
        return self._env.register_dataset(name, self)

    def explain(self) -> str:
        """Compile (without executing) and describe the chosen plan.

        The report shows, per operator, the local strategy and the
        estimated vs *observed* cardinality (measured by this
        environment's previous runs), and per edge the ship strategy
        plus any pushed-down filter.
        """
        from repro.dataflow.graph import LogicalPlan
        from repro.optimizer.visualize import explain_plan
        sink = LogicalNode(Contract.SINK, [self._node], name="explain")
        exec_plan = self._env._compile(LogicalPlan([sink]))
        return explain_plan(exec_plan, self._env)

    # ------------------------------------------------------------------

    def _check_env(self, other):
        if not isinstance(other, DataSet):
            raise TypeError(f"expected DataSet, got {type(other).__name__}")
        if other._env is not self._env:
            raise InvalidPlanError("cannot combine datasets from different environments")

"""Per-partition driver semantics: each local strategy computes the same
relation its contract specifies, and hash/sort flavours agree."""

import pytest

from repro.dataflow.contracts import Contract
from repro.dataflow.graph import LogicalNode
from repro.runtime import drivers
from repro.runtime.metrics import MetricsCollector
from repro.runtime.plan import LocalStrategy


def _node(contract, udf=None, key_fields=None, inputs_arity=1, flat=False):
    inputs = [LogicalNode(Contract.SOURCE, data=[]) for _ in range(inputs_arity)]
    node = LogicalNode(contract, inputs, udf=udf, key_fields=key_fields)
    node.flat = flat
    return node


class TestRecordAtATime:
    def test_map(self):
        node = _node(Contract.MAP, udf=lambda r: (r[0] * 2,))
        metrics = MetricsCollector()
        out = drivers.run_driver(node, None, [[(1,), (2,)]], metrics)
        assert out == [(2,), (4,)]
        assert metrics.total_processed == 2

    def test_flat_map(self):
        node = _node(Contract.FLAT_MAP, udf=lambda r: [(r[0],)] * r[0])
        out = drivers.run_driver(node, None, [[(2,), (0,), (1,)]],
                                 MetricsCollector())
        assert out == [(2,), (2,), (1,)]

    def test_filter(self):
        node = _node(Contract.FILTER, udf=lambda r: r[0] % 2 == 0)
        out = drivers.run_driver(node, None, [[(1,), (2,), (4,)]],
                                 MetricsCollector())
        assert out == [(2,), (4,)]

    def test_union_keeps_duplicates(self):
        node = _node(Contract.UNION, inputs_arity=2)
        out = drivers.run_union(node, [[(1,)], [(1,), (2,)]],
                                MetricsCollector())
        assert sorted(out) == [(1,), (1,), (2,)]


LEFT = [(1, "a"), (2, "b"), (2, "c"), (3, "d")]
RIGHT = [(2, "x"), (2, "y"), (3, "z"), (4, "w")]
EXPECTED_JOIN = sorted([
    ("b", "x"), ("b", "y"), ("c", "x"), ("c", "y"), ("d", "z"),
])


class TestJoins:
    def _join_node(self, flat=False):
        return _node(
            Contract.MATCH, udf=lambda l, r: (l[1], r[1]),
            key_fields=[(0,), (0,)], inputs_arity=2, flat=flat,
        )

    @pytest.mark.parametrize("build_left", [True, False])
    def test_hash_join(self, build_left):
        out = drivers.run_hash_join(
            self._join_node(), [LEFT, RIGHT], MetricsCollector(),
            build_left=build_left,
        )
        assert sorted(out) == EXPECTED_JOIN

    def test_sort_merge_join(self):
        out = drivers.run_sort_merge_join(
            self._join_node(), [LEFT, RIGHT], MetricsCollector()
        )
        assert sorted(out) == EXPECTED_JOIN

    def test_join_udf_none_filters(self):
        node = _node(
            Contract.MATCH,
            udf=lambda l, r: (l[1], r[1]) if l[1] != "b" else None,
            key_fields=[(0,), (0,)], inputs_arity=2,
        )
        out = drivers.run_hash_join(node, [LEFT, RIGHT],
                                    MetricsCollector(), build_left=True)
        assert ("b", "x") not in out
        assert ("c", "x") in out

    def test_flat_join_expands(self):
        node = _node(
            Contract.MATCH,
            udf=lambda l, r: [(l[1],), (r[1],)],
            key_fields=[(0,), (0,)], inputs_arity=2, flat=True,
        )
        out = drivers.run_hash_join(node, [[(1, "a")], [(1, "b")]],
                                    MetricsCollector(), build_left=False)
        assert sorted(out) == [("a",), ("b",)]

    def test_empty_sides(self):
        node = self._join_node()
        assert drivers.run_hash_join(node, [[], RIGHT], MetricsCollector(),
                                     build_left=True) == []
        assert drivers.run_sort_merge_join(node, [LEFT, []],
                                           MetricsCollector()) == []


class TestAggregations:
    def _reduce_node(self):
        return _node(
            Contract.REDUCE,
            udf=lambda a, b: (a[0], a[1] + b[1]),
            key_fields=[(0,)],
        )

    DATA = [(1, 10), (2, 1), (1, 5), (2, 2), (3, 7)]

    def test_hash_aggregate(self):
        out = drivers.run_hash_aggregate(self._reduce_node(), [self.DATA],
                                         MetricsCollector())
        assert sorted(out) == [(1, 15), (2, 3), (3, 7)]

    def test_sort_aggregate_matches_hash_and_is_sorted(self):
        out = drivers.run_sort_aggregate(self._reduce_node(), [self.DATA],
                                         MetricsCollector())
        assert out == [(1, 15), (2, 3), (3, 7)]  # key-sorted

    def test_aggregate_empty(self):
        assert drivers.run_hash_aggregate(self._reduce_node(), [[]],
                                          MetricsCollector()) == []
        assert drivers.run_sort_aggregate(self._reduce_node(), [[]],
                                          MetricsCollector()) == []

    def test_reduce_group(self):
        node = _node(
            Contract.REDUCE_GROUP,
            udf=lambda key, group: [(key, len(group))],
            key_fields=[(0,)],
        )
        out = drivers.run_reduce_group(node, [self.DATA], MetricsCollector())
        assert sorted(out) == [(1, 2), (2, 2), (3, 1)]

    def test_combiner_preaggregates_each_partition(self):
        node = self._reduce_node()
        parts = [[(1, 1), (1, 2)], [(1, 4), (2, 1)]]
        combined = drivers.apply_combiner(node, parts, MetricsCollector())
        assert sorted(combined[0]) == [(1, 3)]
        assert sorted(combined[1]) == [(1, 4), (2, 1)]


class TestCoGroup:
    def _cogroup_node(self):
        return _node(
            Contract.COGROUP,
            udf=lambda key, left, right: [(key, len(left), len(right))],
            key_fields=[(0,), (0,)], inputs_arity=2,
        )

    def test_outer_pairs_key_union(self):
        out = drivers.run_cogroup(self._cogroup_node(), [LEFT, RIGHT],
                                  MetricsCollector(), inner=False)
        assert sorted(out) == [(1, 1, 0), (2, 2, 2), (3, 1, 1), (4, 0, 1)]

    def test_inner_pairs_key_intersection(self):
        out = drivers.run_cogroup(self._cogroup_node(), [LEFT, RIGHT],
                                  MetricsCollector(), inner=True)
        assert sorted(out) == [(2, 2, 2), (3, 1, 1)]


class TestCross:
    def test_all_pairs(self):
        node = _node(Contract.CROSS, udf=lambda a, b: (a[0], b[0]),
                     inputs_arity=2)
        out = drivers.run_cross(node, [[(1,), (2,)], [(3,), (4,)]],
                                MetricsCollector())
        assert sorted(out) == [(1, 3), (1, 4), (2, 3), (2, 4)]

    def test_none_results_dropped(self):
        node = _node(Contract.CROSS,
                     udf=lambda a, b: (a[0], b[0]) if a[0] == 1 else None,
                     inputs_arity=2)
        out = drivers.run_cross(node, [[(1,), (2,)], [(3,)]],
                                MetricsCollector())
        assert out == [(1, 3)]


class TestDispatch:
    def test_match_requires_strategy(self):
        node = _node(Contract.MATCH, udf=lambda l, r: None,
                     key_fields=[(0,), (0,)], inputs_arity=2)
        from repro.common.errors import InvalidPlanError
        with pytest.raises(InvalidPlanError):
            drivers.run_driver(node, LocalStrategy.NONE, [[], []],
                               MetricsCollector())

    def test_dispatch_covers_reduce_strategies(self):
        node = _node(Contract.REDUCE, udf=lambda a, b: a, key_fields=[(0,)])
        for strategy in (LocalStrategy.HASH_AGGREGATE,
                         LocalStrategy.SORT_AGGREGATE):
            assert drivers.run_driver(node, strategy, [[(1, 2)]],
                                      MetricsCollector()) == [(1, 2)]

"""Tracer mechanics: nesting, counter deltas, structure, merge."""

import pytest

from repro.common.errors import InvariantViolation
from repro.observability import (
    LOGICAL_SPAN_COUNTERS,
    Tracer,
    attach_tracer,
    canonical_name,
)
from repro.runtime.metrics import MetricsCollector


class TestNesting:
    def test_spans_nest(self):
        tracer = Tracer()
        outer = tracer.begin("outer")
        inner = tracer.begin("inner")
        tracer.end(inner)
        tracer.end(outer)
        assert [s.name for s in tracer.roots] == ["outer"]
        assert [s.name for s in outer.children] == ["inner"]
        assert tracer.open_depth == 0

    def test_end_without_open_span_raises(self):
        tracer = Tracer()
        with pytest.raises(InvariantViolation):
            tracer.end()

    def test_end_out_of_order_raises(self):
        tracer = Tracer()
        outer = tracer.begin("outer")
        tracer.begin("inner")
        with pytest.raises(InvariantViolation):
            tracer.end(outer)

    def test_context_manager_closes_on_error(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("phase"):
                raise RuntimeError("boom")
        assert tracer.open_depth == 0
        assert tracer.roots[0].end_s is not None

    def test_instant_attaches_to_innermost(self):
        tracer = Tracer()
        with tracer.span("outer"):
            marker = tracer.instant("marker", note=1)
        assert tracer.roots[0].children == [marker]
        assert marker.is_instant
        root_marker = tracer.instant("loose")
        assert root_marker in tracer.roots


class TestCounters:
    def test_span_counters_are_deltas(self):
        metrics = MetricsCollector()
        tracer = attach_tracer(metrics)
        metrics.add_processed("warmup", 100)
        with tracer.span("work") as span:
            metrics.add_processed("join", 7)
            metrics.add_shipped(local=2, remote=3)
        assert span.counters["records_processed"] == 7
        assert span.counters["records_shipped_local"] == 2
        assert span.counters["records_shipped_remote"] == 3
        # zero deltas are omitted, not recorded as 0
        assert "solution_updates" not in span.counters

    def test_explicit_counters_merge_in(self):
        tracer = Tracer()
        span = tracer.begin("superstep:1")
        tracer.end(span, counters={"workset_size": 42, "delta_size": 5})
        assert span.counters == {"workset_size": 42, "delta_size": 5}

    def test_canonical_name_strips_node_ids(self):
        assert canonical_name("operator:join#17") == "operator:join"
        assert canonical_name("plain") == "plain"


class TestStructure:
    def test_structure_ignores_timestamps(self):
        def build():
            tracer = Tracer()
            with tracer.span("outer"):
                with tracer.span("inner", category="operator"):
                    pass
            return tracer
        assert build().structure() == build().structure()

    def test_structure_pins_requested_counters(self):
        tracer = Tracer()
        span = tracer.begin("superstep:1", category="superstep")
        tracer.end(span, counters={"workset_size": 9})
        (encoded,) = tracer.structure(LOGICAL_SPAN_COUNTERS)
        counters = dict(encoded[2])
        assert counters["workset_size"] == 9
        assert counters["delta_size"] == 0


class TestSnapshotReset:
    def test_snapshot_is_independent(self):
        tracer = Tracer()
        with tracer.span("phase"):
            pass
        copy = tracer.snapshot()
        tracer.reset()
        assert tracer.roots == []
        assert [s.name for s in copy.roots] == ["phase"]

    def test_snapshot_and_reset_refuse_open_spans(self):
        tracer = Tracer()
        tracer.begin("open")
        with pytest.raises(InvariantViolation):
            tracer.snapshot()
        with pytest.raises(InvariantViolation):
            tracer.reset()


class TestMerge:
    def _worker(self, rank, processed):
        tracer = Tracer(rank=rank)
        with tracer.span("superstep:1", category="superstep") as span:
            pass
        span.counters["records_processed"] = processed
        return tracer

    def test_aligned_merge_sums_counters(self):
        merged = self._worker(0, 10).merge(self._worker(1, 32), align=True)
        assert merged.roots[0].counters["records_processed"] == 42

    def test_aligned_merge_requires_same_shape(self):
        lhs = self._worker(0, 1)
        rhs = Tracer(rank=1)
        with rhs.span("different"):
            pass
        with pytest.raises(InvariantViolation):
            lhs.merge(rhs, align=True)

    def test_aligned_merge_requires_same_root_count(self):
        lhs = self._worker(0, 1)
        rhs = self._worker(1, 1)
        with rhs.span("superstep:1", category="superstep"):
            pass
        with pytest.raises(InvariantViolation):
            lhs.merge(rhs, align=True)

    def _spilling_worker(self, spills, logical=1):
        tracer = Tracer()
        with tracer.span("operator:reduce", category="operator"):
            for _ in range(logical):
                with tracer.span("ship", category="channel"):
                    pass
            for _ in range(spills):
                with tracer.span("spill-write:reduce", category="storage"):
                    pass
        return tracer

    def test_aligned_merge_keeps_each_workers_storage_spans(self):
        merged = self._spilling_worker(3).merge(
            self._spilling_worker(1), align=True
        )
        children = merged.roots[0].children
        assert [c.category for c in children].count("storage") == 4
        assert [c.category for c in children].count("channel") == 1

    def test_storage_spans_do_not_relax_logical_alignment(self):
        with pytest.raises(InvariantViolation, match="1 spans here vs 2"):
            self._spilling_worker(3).merge(
                self._spilling_worker(3, logical=2), align=True
            )

    def test_sequential_merge_appends(self):
        lhs = self._worker(0, 1)
        merged = lhs.merge(self._worker(1, 2), align=False)
        assert len(merged.roots) == 2

    def test_merged_instants_stay_instant(self):
        def with_instant(start):
            tracer = Tracer()
            span = tracer.begin("phase")
            marker = span.children
            tracer.instant("mark")
            tracer.end(span)
            # simulate worker clock skew on the instant
            (mark,) = marker
            mark.start_s = mark.end_s = start
            return tracer
        merged = with_instant(1.0).merge(with_instant(5.0), align=True)
        mark = merged.roots[0].children[0]
        assert mark.is_instant

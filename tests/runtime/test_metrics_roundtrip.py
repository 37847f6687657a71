"""Snapshot/reset round-trips and the new physical counters."""

import pytest

from repro.observability.tracer import attach_tracer
from repro.runtime.invariants import attach_checker
from repro.runtime.metrics import COUNTERS, IterationStats, MetricsCollector


def _logical(snapshot):
    """The snapshot minus wall-clock durations (never reproducible)."""
    out = dict(snapshot)
    out["iteration_log"] = [
        {k: v for k, v in entry.items() if k != "duration_s"}
        for entry in snapshot["iteration_log"]
    ]
    return out


def _populate(metrics):
    metrics.begin_superstep(1)
    metrics.add_processed("join", 10)
    metrics.add_shipped(local=4, remote=6)
    metrics.add_bytes_shipped(128)
    metrics.add_cache_build()
    metrics.end_superstep(workset_size=10, delta_size=3)
    metrics.begin_superstep(2)
    metrics.add_processed("join", 5)
    metrics.add_cache_hit()
    metrics.end_superstep(workset_size=3, delta_size=1)
    return metrics


class TestSnapshot:
    def test_snapshot_reports_new_counters(self):
        snap = _populate(MetricsCollector()).snapshot()
        assert snap["bytes_shipped"] == 128
        assert snap["cache_hits"] == 1
        assert snap["cache_builds"] == 1
        assert snap["supersteps"] == 2

    def test_superstep_scoping_lands_in_iteration_log(self):
        snap = _populate(MetricsCollector()).snapshot()
        first, second = snap["iteration_log"]
        assert first["bytes_shipped"] == 128
        assert first["cache_builds"] == 1
        assert second["cache_hits"] == 1
        assert second["bytes_shipped"] == 0

    def test_snapshot_is_detached(self):
        metrics = _populate(MetricsCollector())
        snap = metrics.snapshot()
        metrics.add_processed("join", 99)
        assert snap["total_processed"] == 15

    def test_stats_as_dict_round_trips(self):
        stats = IterationStats(superstep=3)
        stats.bytes_shipped = 7
        stats.cache_hits = 2
        stats.cache_builds = 1
        as_dict = stats.as_dict()
        assert as_dict["bytes_shipped"] == 7
        assert as_dict["cache_hits"] == 2
        assert as_dict["cache_builds"] == 1


class TestResetRoundTrip:
    def test_reset_restores_pristine_snapshot(self):
        metrics = _populate(MetricsCollector())
        metrics.reset()
        assert metrics.snapshot() == MetricsCollector().snapshot()

    def test_populate_after_reset_matches_first_run(self):
        metrics = _populate(MetricsCollector())
        first = metrics.snapshot()
        metrics.reset()
        second = _populate(metrics).snapshot()
        assert _logical(first) == _logical(second)


class TestMergeNewCounters:
    def test_aligned_merge_sums_physical_counters(self):
        lhs = _populate(MetricsCollector())
        rhs = _populate(MetricsCollector())
        merged = lhs.merge(rhs, align_supersteps=True).snapshot()
        assert merged["bytes_shipped"] == 256
        assert merged["cache_hits"] == 2
        assert merged["cache_builds"] == 2
        first, second = merged["iteration_log"]
        assert first["bytes_shipped"] == 256
        assert second["cache_hits"] == 2


#: the public hook that adds ``n`` to each counter and to no other
HOOKS = {
    "records_processed": lambda m, n: m.add_processed("op", n),
    "records_shipped_local": lambda m, n: m.add_shipped(local=n, remote=0),
    "records_shipped_remote": lambda m, n: m.add_shipped(local=0, remote=n),
    "solution_accesses": lambda m, n: m.add_solution_access(n),
    "solution_updates": lambda m, n: m.add_solution_update(n),
    "bytes_shipped": lambda m, n: m.add_bytes_shipped(n),
    "batches_shipped": lambda m, n: m.add_batches_shipped(n),
    "cache_hits": lambda m, n: m.add_cache_hit(n),
    "cache_builds": lambda m, n: m.add_cache_build(n),
    "records_spilled": lambda m, n: m.add_spilled(n, 0),
    "bytes_spilled": lambda m, n: m.add_spilled(0, n),
}


def _one_counter(name):
    """A checked, traced collector that counted 2 of ``name`` outside any
    superstep and 3 inside superstep 1."""
    metrics = MetricsCollector()
    attach_checker(metrics)
    attach_tracer(metrics)
    HOOKS[name](metrics, 2)
    metrics.begin_superstep(1)
    HOOKS[name](metrics, 3)
    assert getattr(metrics._open_superstep, name) == 3
    metrics.end_superstep()
    return metrics


def test_every_counter_has_a_hook():
    assert set(HOOKS) == set(COUNTERS)


@pytest.mark.parametrize("name", COUNTERS)
def test_counter_hook_round_trips(name):
    snap_key = "total_processed" if name == "records_processed" else name
    metrics = _one_counter(name)
    assert metrics.total(name) == 5
    assert metrics.sample() == tuple(
        5 if other == name else 0 for other in COUNTERS
    )
    assert getattr(metrics.iteration_log[0], name) == 3
    snap = metrics.snapshot()
    assert snap[snap_key] == 5
    assert snap["iteration_log"][0][name] == 3
    (span,) = [s for s in metrics.tracer.iter_spans()
               if s.category == "superstep"]
    assert span.counters == {name: 3, "workset_size": 0, "delta_size": 0}
    # totals and the traced superstep span reconcile with the log
    metrics.verify_invariants()

    aligned = _one_counter(name).merge(_one_counter(name))
    assert aligned.total(name) == 10
    assert [getattr(s, name) for s in aligned.iteration_log] == [6]
    aligned.verify_invariants()

    sequential = _one_counter(name).merge(
        _one_counter(name), align_supersteps=False
    )
    assert sequential.total(name) == 10
    assert [getattr(s, name) for s in sequential.iteration_log] == [3, 3]
    sequential.verify_invariants()

    metrics.reset()
    assert metrics.total(name) == 0
    assert metrics.snapshot() == MetricsCollector().snapshot()
    metrics.verify_invariants()

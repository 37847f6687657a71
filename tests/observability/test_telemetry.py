"""Live telemetry: instruments, merges, exporters, and the off switch."""

import gc
import json

import pytest

from repro import ExecutionEnvironment
from repro.algorithms import connected_components as cc
from repro.algorithms import pagerank as pr
from repro.graphs import erdos_renyi
from repro.observability.telemetry import (
    MetricRegistry,
    attach_telemetry,
    prometheus_text,
    write_series_jsonl,
)
from repro.runtime.config import RuntimeConfig
from repro.runtime.metrics import COUNTERS, MetricsCollector


# ----------------------------------------------------------------------
# instruments


def test_counter_accumulates_and_rejects_negative():
    registry = MetricRegistry()
    counter = registry.counter("ships")
    counter.inc()
    counter.inc(4)
    assert registry.value("ships") == 5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_kind_mismatch_rejected():
    registry = MetricRegistry()
    registry.counter("x")
    with pytest.raises(ValueError):
        registry.gauge("x")
    # one kind per name, whatever the labels
    registry.counter("y", {"rank": 0})
    with pytest.raises(ValueError):
        registry.gauge("y")


def test_histogram_buckets_and_overflow():
    registry = MetricRegistry()
    hist = registry.histogram("lat", bounds=(0.1, 1.0))
    for value in (0.05, 0.5, 0.5, 5.0):
        hist.observe(value)
    assert hist.bucket_counts == [1, 2, 1]
    assert hist.count == 4
    assert hist.sum == pytest.approx(6.05)


def test_labels_distinguish_instruments():
    registry = MetricRegistry()
    registry.counter("c", labels={"rank": 0}).inc(2)
    registry.counter("c", labels={"rank": 1}).inc(3)
    assert registry.value("c", labels={"rank": 0}) == 2
    assert registry.total("c") == 5


# ----------------------------------------------------------------------
# snapshot merging: the cross-rank determinism contract


def _rank_registry(rank, observations):
    registry = MetricRegistry(rank=rank)
    registry.counter("ships", labels={"rank": rank}).inc(rank + 1)
    hist = registry.histogram("dur", bounds=(0.01, 0.1, 1.0))
    for value in observations:
        hist.observe(value)
    registry.gauge("rss").set(1000 * (rank + 1))
    return registry


def test_merge_is_order_independent():
    snaps = [
        _rank_registry(0, [0.005, 0.5]).snapshot(),
        _rank_registry(1, [0.05, 0.05, 2.0]).snapshot(),
        _rank_registry(2, [0.2]).snapshot(),
    ]

    def merged(order):
        target = MetricRegistry()
        for index in order:
            target.merge_snapshot(snaps[index])
        return target

    forward, backward = merged([0, 1, 2]), merged([2, 1, 0])
    hist_f = forward.get("dur")
    hist_b = backward.get("dur")
    assert hist_f.bucket_counts == hist_b.bucket_counts == [1, 2, 2, 1]
    assert hist_f.count == hist_b.count == 6
    assert hist_f.sum == pytest.approx(hist_b.sum)
    # counters sum; gauges take the max (levels are not additive)
    assert forward.total("ships") == backward.total("ships") == 6
    assert forward.value("rss") == backward.value("rss") == 3000
    assert prometheus_text(forward) == prometheus_text(backward)


def test_merge_rejects_mismatched_histogram_bounds():
    a = MetricRegistry()
    a.histogram("dur", bounds=(0.1, 1.0)).observe(0.5)
    b = MetricRegistry()
    b.histogram("dur", bounds=(0.5, 5.0)).observe(0.7)
    with pytest.raises(ValueError):
        a.merge_snapshot(b.snapshot())


# ----------------------------------------------------------------------
# exporters


def test_prometheus_text_format():
    registry = MetricRegistry()
    registry.counter("fabric.bytes_sent", labels={"rank": 0}).inc(10)
    registry.histogram("dur", bounds=(0.1, 1.0)).observe(0.5)
    text = prometheus_text(registry)
    assert '# TYPE repro_fabric_bytes_sent counter' in text
    assert 'repro_fabric_bytes_sent{rank="0"} 10' in text
    # histogram buckets are cumulative and close with +Inf/_sum/_count
    assert 'repro_dur_bucket{le="0.1"} 0' in text
    assert 'repro_dur_bucket{le="1.0"} 1' in text
    assert 'repro_dur_bucket{le="+Inf"} 1' in text
    assert 'repro_dur_sum 0.5' in text
    assert 'repro_dur_count 1' in text


def test_series_jsonl_roundtrip(tmp_path):
    registry = MetricRegistry()
    registry.record("workset", 10, t_s=1.0)
    registry.record("workset", 4, t_s=2.0)
    path = write_series_jsonl(
        str(tmp_path / "series.jsonl"), registry, meta={"backend": "x"}
    )
    lines = [json.loads(line)
             for line in open(path, encoding="utf-8")]
    assert lines[0]["type"] == "meta"
    assert lines[0]["samples"] == 2
    assert lines[0]["backend"] == "x"
    assert [s["value"] for s in lines[1:]] == [10, 4]
    assert all(s["t_s"] for s in lines[1:])


# ----------------------------------------------------------------------
# wiring: opt-in, off-path, and result parity


def test_telemetry_off_by_default():
    env = ExecutionEnvironment(parallelism=2)
    assert env.telemetry is None
    assert env.metrics.telemetry is None
    with pytest.raises(RuntimeError, match="REPRO_TELEMETRY"):
        env.telemetry_text()
    # a job bills nothing, and attaches no registry to bill into
    env.collect(env.from_iterable([(1,), (2,)]))
    assert env.telemetry is None
    assert env.metrics.telemetry is None


def test_attach_telemetry_idempotent():
    metrics = MetricsCollector()
    registry = attach_telemetry(metrics, rank=3)
    assert attach_telemetry(metrics, rank=5) is registry
    assert registry.rank == 3


def _run_cc(backend, telemetry, budget=None):
    env = ExecutionEnvironment(
        parallelism=4, backend=backend,
        config=RuntimeConfig(telemetry=telemetry,
                             memory_budget_bytes=budget),
    )
    graph = erdos_renyi(120, 2.5, seed=11)
    result = cc.cc_incremental(env, graph, variant="cogroup",
                               mode="superstep")
    return env, sorted(result.items())


LOGICAL = ("records_processed", "records_shipped_local",
           "records_shipped_remote", "solution_accesses",
           "solution_updates", "supersteps")


@pytest.mark.parametrize("backend,budget", [
    pytest.param(backend, budget, id=backend + ("-budget" if budget else ""))
    for budget in (None, 4096)
    for backend in ("simulated", "multiprocess")
])
def test_results_and_logical_counters_identical_with_telemetry(
        backend, budget):
    """With a budget this fails at the parent commit: the spill manager
    counted ``spill.bytes_spilled`` while its probe sampled a gauge of
    the same name, and the first superstep barrier raised."""
    env_off, result_off = _run_cc(backend, telemetry=False, budget=budget)
    env_on, result_on = _run_cc(backend, telemetry=True, budget=budget)
    assert result_on == result_off
    for name in LOGICAL:
        assert getattr(env_on.metrics, name) == \
            getattr(env_off.metrics, name), name
    if budget is not None:
        assert env_on.metrics.records_spilled > 0


@pytest.mark.parametrize("budget", [None, 4096])
@pytest.mark.parametrize("backend", ["simulated", "pool"])
def test_registry_counts_are_the_collector_counts(backend, budget):
    """The registry counts nothing of its own: over a session of delta,
    microstep and bulk jobs, every one of the eleven schema counters it
    exports equals the collector's total, no name holds two kinds, and a
    memory budget does not crash the jobs."""
    env = ExecutionEnvironment(
        parallelism=4, backend=backend,
        config=RuntimeConfig(telemetry=True, memory_budget_bytes=budget),
    )
    graph = erdos_renyi(120, 2.5, seed=11)
    try:
        cc.cc_incremental(env, graph, variant="cogroup", mode="superstep")
        cc.cc_incremental(env, graph, variant="match", mode="microstep")
        pr.pagerank_bulk(env, graph, 5)
    finally:
        if backend == "pool":
            env.backend.close()
    for name in COUNTERS:
        assert env.telemetry.total(name) == env.metrics.total(name), name
    kinds = {}
    for metric in env.telemetry.metrics():
        assert kinds.setdefault(metric.name, metric.kind) == metric.kind, \
            metric.name
    assert env.telemetry.total("jobs") == 3
    assert env.telemetry.total("bytes_shipped") == env.metrics.bytes_shipped
    # one wall-time sample per job, labelled with the job's number
    assert [sample["labels"] for sample in env.telemetry.series
            if sample["name"] == "job.wall_s"] == \
        [{"job": job} for job in (1, 2, 3)]
    # every frame the endpoints sent, on the one path there is
    frames = env.telemetry.total("fabric.frames_sent")
    assert (frames > 0) == (backend == "pool")


def test_simulated_run_populates_registry_and_bill():
    env, _ = _run_cc("simulated", telemetry=True)
    names = {metric.name for metric in env.telemetry.metrics()}
    assert "executor.superstep_duration_s" in names
    assert "executor.superstep" in names
    assert "executor.memo_nodes" in names
    assert "worker.rss_bytes" in names
    hist = env.telemetry.get("executor.superstep_duration_s")
    assert hist.count == env.metrics.supersteps
    assert env.telemetry.value("executor.superstep") == \
        env.metrics.supersteps
    assert env.telemetry.series  # per-superstep samples recorded
    assert env.telemetry.total("jobs") == 1
    assert env.telemetry.value("job.wall_s") > 0
    assert env.telemetry.value("job.cpu_s", {"rank": 0}) > 0
    assert env.telemetry.value("worker.peak_rss_bytes") > 0
    assert "repro_executor_superstep" in env.telemetry_text()


def test_pool_bill_sums_cpu_and_takes_the_peak_rss_max(monkeypatch):
    """One 2-rank pool job is billed once: ``jobs`` counts it once, each
    rank's cpu seconds keep their ``rank`` label and sum, and the peak
    RSS gauge merges as the max of the two workers' (budgets are per
    process)."""
    env = ExecutionEnvironment(
        parallelism=2, backend="pool", config=RuntimeConfig(telemetry=True),
    )
    registry = env.telemetry
    worker_peaks = []
    merge = registry.merge_snapshot

    def merge_and_note_peak(snap):
        worker_peaks.extend(
            entry["value"] for entry in snap["metrics"]
            if entry["name"] == "worker.peak_rss_bytes"
        )
        return merge(snap)

    monkeypatch.setattr(registry, "merge_snapshot", merge_and_note_peak)
    try:
        cc.cc_incremental(env, erdos_renyi(120, 2.5, seed=11),
                          variant="cogroup", mode="superstep")
    finally:
        env.close()
    assert registry.total("jobs") == 1
    cpu = [registry.value("job.cpu_s", {"rank": rank}) for rank in (0, 1)]
    assert all(seconds > 0 for seconds in cpu)
    assert registry.total("job.cpu_s") == pytest.approx(sum(cpu))
    assert len(worker_peaks) == 2 and min(worker_peaks) > 0
    assert registry.value("worker.peak_rss_bytes") == max(worker_peaks)
    assert registry.total("job.wall_s") > 0


@pytest.mark.parametrize("backend", ["simulated", "pool"])
def test_prometheus_text_carries_the_bill(backend):
    """Fails at the parent commit: cpu seconds and peak RSS lived only
    in the resource ledger, which the Prometheus text never showed."""
    env, _ = _run_cc(backend, telemetry=True)
    env.close()
    text = env.telemetry_text()
    assert "repro_job_cpu_s{rank=" in text
    assert "repro_worker_peak_rss_bytes " in text
    assert "repro_jobs 1" in text


def test_probes_live_for_one_job_only(executors):
    """Fails at the parent commit: every job's executor left its probes
    in the session registry, so job N polled N sets (N samples per gauge
    per superstep) and each stale bound method pinned a finished
    executor with its whole memo."""
    env, _ = _run_cc("simulated", telemetry=True)
    graph = erdos_renyi(120, 2.5, seed=11)
    (finished,) = executors
    for _ in range(3):
        cc.cc_incremental(env, graph, variant="cogroup", mode="superstep")
        assert env.telemetry._probes == []
    samples = [sample for sample in env.telemetry.series
               if sample["name"] == "executor.memo_nodes"]
    assert len(samples) == env.metrics.supersteps
    gc.collect()
    assert finished() is None


def test_series_export_from_environment(tmp_path):
    env, _ = _run_cc("simulated", telemetry=True)
    path = env.write_telemetry_series(str(tmp_path / "run.jsonl"))
    lines = [json.loads(line) for line in open(path, encoding="utf-8")]
    assert lines[0]["type"] == "meta"
    assert lines[0]["backend"] == "simulated"
    assert len(lines) == 1 + len(env.telemetry.series)

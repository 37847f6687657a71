"""``bench monitor``: the live worker-health view's smoke contract."""

import io

import pytest

from repro.bench import monitor


def test_unknown_workload_rejected():
    with pytest.raises(ValueError, match="unknown monitor workload"):
        monitor.run("nope")


def test_monitor_once_smoke():
    result = monitor.run(
        "connected_components", parallelism=2, num_vertices=800,
        interval_s=0.05, once=True,
    )
    assert result.ok, result.report()
    assert result.frames == 0  # --once renders nothing live
    assert len(result.rows) == 2
    for row in result.rows:
        assert row["pid"] is not None
        assert row["rss_bytes"] > 0
    assert max(result.peak_supersteps.values()) >= 1
    # the resources line is the registry's bill of the one job
    totals = result.resource_totals
    assert totals["jobs"] == 1
    assert totals["wall_s"] > 0 and totals["cpu_s"] > 0
    assert totals["peak_rss_bytes"] > 0
    assert totals["bytes_shipped"] > 0
    assert totals["bytes_spilled"] == totals["records_spilled"] == 0
    report = result.report()
    assert "resources: 1 job(s), wall " in report
    assert "0 records spilled" in report
    assert "Worker health" in report
    assert "repro_executor_superstep" in report
    assert "OK:" in report


def test_monitor_live_renders_frames():
    out = io.StringIO()
    result = monitor.run(
        "connected_components", parallelism=2, num_vertices=2_000,
        interval_s=0.05, refresh_s=0.05, stream=out,
    )
    assert result.ok, result.report()
    assert result.frames >= 1
    assert "live" in out.getvalue()

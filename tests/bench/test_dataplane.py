"""The data-plane microbenchmark: artifact shape and gating logic."""

import json
import os

from repro.bench import reporting
from repro.bench.experiments import dataplane


class TestDataplaneExperiment:
    def test_small_run_reports_and_gates(self, tmp_path, monkeypatch):
        monkeypatch.setattr(reporting, "results_dir", lambda: str(tmp_path))
        result = dataplane.run(num_vertices=300, avg_degree=4.0,
                               parallelism=2, rounds=1)
        assert [row["primitive"] for row in result.rows] == [
            "ship(partition_hash)", "hash join", "hash aggregate",
        ]
        for row in result.rows:
            assert row["records"] > 0
            assert row["batched_s"] > 0 and row["per_record_s"] > 0
            assert row["speedup"] > 0
        # the ship and join rows gate the run; the aggregate row reports
        assert [row["gating"] for row in result.rows] == [True, True, False]

        report = result.report()
        assert "Data plane" in report
        assert "batch_size" in report

        with open(os.path.join(str(tmp_path), dataplane.ARTIFACT)) as handle:
            payload = json.load(handle)
        assert payload["experiment"] == "dataplane"
        assert payload["speedup_floor"] == dataplane.SPEEDUP_FLOOR
        assert payload["rows"] == result.rows
        assert payload["ok"] == result.ok

    def test_no_artifact_when_disabled(self, tmp_path, monkeypatch):
        monkeypatch.setattr(reporting, "results_dir", lambda: str(tmp_path))
        result = dataplane.run(num_vertices=200, avg_degree=3.0,
                               parallelism=2, rounds=1,
                               save_artifact=False)
        assert result.artifact_path == ""
        assert not os.listdir(str(tmp_path))

    def test_ok_false_when_speedup_floor_missed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(reporting, "results_dir", lambda: str(tmp_path))
        monkeypatch.setattr(dataplane, "SPEEDUP_FLOOR", float("inf"))
        result = dataplane.run(num_vertices=200, avg_degree=3.0,
                               parallelism=2, rounds=1,
                               save_artifact=False)
        assert result.ok is False

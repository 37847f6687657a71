"""The backend-scaling experiment: honest wall clocks, equal results."""

import json
import os

from repro.bench import reporting
from repro.bench.experiments import scaling


class TestScalingExperiment:
    def test_small_run_reports_and_matches(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            reporting, "results_dir", lambda: str(tmp_path)
        )
        result = scaling.run(dataset="sample9", iterations=2,
                             worker_counts=(1, 2))
        assert [row["workers"] for row in result.rows] == [1, 2]
        assert all(row["results_match"] for row in result.rows)
        assert result.host_cpus >= 1

        report = result.report()
        assert "Backend scaling" in report
        assert "host_cpus" in report
        assert "pool" in report

        with open(os.path.join(str(tmp_path), scaling.ARTIFACT)) as handle:
            payload = json.load(handle)
        assert payload["host_cpus"] == result.host_cpus
        assert payload["rows"] == result.rows
        assert payload["monotone_ok"] == result.monotone_ok

    def test_rows_flag_oversubscription_against_host_cpus(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.setattr(reporting, "results_dir", lambda: str(tmp_path))
        result = scaling.run(dataset="sample9", iterations=1,
                             worker_counts=(1, 2), save_artifact=False)
        for row in result.rows:
            assert row["oversubscribed"] == (
                row["workers"] > result.host_cpus
            )
        # one worker can never oversubscribe
        assert result.rows[0]["oversubscribed"] is False

    def test_monotone_gate_skips_oversubscribed_rows(self):
        result = scaling.ScalingResult(
            dataset="x", num_vertices=1, num_edges=1, iterations=1,
            host_cpus=2,
        )

        def row(workers, speedup, oversubscribed):
            return {
                "workers": workers,
                "simulated_s": 1.0, "pool_s": 1.0, "pool_warm_s": 1.0,
                "pool_speedup_vs_1_worker": 1.0,
                "pool_warm_speedup_vs_1_worker": speedup,
                "oversubscribed": oversubscribed,
                "results_match": True,
            }

        # speedup collapses only on the oversubscribed row: gate holds
        result.rows = [row(1, 1.0, False), row(2, 1.7, False),
                       row(4, 0.4, True)]
        assert result.monotone_ok and result.ok

        # regression on a non-oversubscribed row: gate fails
        result.rows = [row(1, 1.0, False), row(2, 0.5, False)]
        assert not result.monotone_ok and not result.ok

        # mismatched results fail regardless of timing
        bad = row(1, 1.0, False)
        bad["results_match"] = False
        result.rows = [bad]
        assert result.monotone_ok and not result.ok

    def test_no_artifact_when_disabled(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            reporting, "results_dir", lambda: str(tmp_path)
        )
        result = scaling.run(dataset="sample9", iterations=1,
                             worker_counts=(1,), save_artifact=False)
        assert result.artifact_path == ""
        assert not os.listdir(str(tmp_path))

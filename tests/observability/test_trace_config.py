"""Trace wiring on the environment and the JSONL event log.

(``REPRO_TRACE`` parsing is covered by tests/runtime/test_config_env.py.)
"""

import json

from repro import ExecutionEnvironment
from repro.algorithms import connected_components as cc
from repro.graphs import erdos_renyi
from repro.runtime.config import RuntimeConfig


class TestEnvironmentWiring:
    def test_untraced_environment_has_no_tracer(self):
        env = ExecutionEnvironment(2, config=RuntimeConfig(trace=False))
        assert env.tracer is None
        assert env.trace_timelines == []

    def test_trace_path_writes_jsonl_on_execution(self, tmp_path):
        log = tmp_path / "cc.jsonl"
        env = ExecutionEnvironment(
            2, config=RuntimeConfig(trace=True, trace_path=str(log)),
        )
        cc.cc_incremental(env, erdos_renyi(40, 2.0, seed=5),
                          variant="cogroup", mode="superstep")
        records = [json.loads(line)
                   for line in log.read_text().splitlines()]
        assert records[0]["type"] == "meta"
        assert any(r["type"] == "span" and r["category"] == "superstep"
                   for r in records)

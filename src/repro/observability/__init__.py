"""Span-based tracing, live telemetry, exporters, and profiling.

See :mod:`repro.observability.tracer` for the recording model,
:mod:`repro.observability.telemetry` for the live metric registry and
its per-job bill, :mod:`repro.observability.health` for worker
heartbeats and the straggler/stall monitor,
:mod:`repro.observability.export` for the JSONL / Chrome-trace
consumers, and :mod:`repro.observability.profile` for the per-operator
profile report behind ``python -m repro.bench trace``.
"""

from repro.observability.export import (
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.observability.health import (
    HealthMonitor,
    HealthWarningBase,
    HeartbeatLossWarning,
    HeartbeatSender,
    StallWarning,
    StragglerWarning,
    WorkerVitals,
)
from repro.observability.profile import operator_profile
from repro.observability.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    attach_telemetry,
    prometheus_text,
    write_series_jsonl,
)
from repro.observability.tracer import (
    LOGICAL_SPAN_COUNTERS,
    SPAN_COUNTERS,
    Span,
    Tracer,
    attach_tracer,
    canonical_name,
)

__all__ = [
    "LOGICAL_SPAN_COUNTERS",
    "SPAN_COUNTERS",
    "Counter",
    "Gauge",
    "HealthMonitor",
    "HealthWarningBase",
    "HeartbeatLossWarning",
    "HeartbeatSender",
    "Histogram",
    "MetricRegistry",
    "Span",
    "StallWarning",
    "StragglerWarning",
    "Tracer",
    "WorkerVitals",
    "attach_telemetry",
    "attach_tracer",
    "canonical_name",
    "operator_profile",
    "prometheus_text",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "write_series_jsonl",
]

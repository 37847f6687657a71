"""Runtime configuration flags shared by all engines.

The simulated dataflow engine, the Spark-like engine, and the Pregel-like
engine all accept a :class:`RuntimeConfig`; its docstring describes each
switch.  Fields that have a ``REPRO_*`` environment variable read their
default from it through the two parsers below (:func:`_env_flag`,
:func:`_env_number`); an explicitly passed value always wins.

Invariant checking defaults to **on under pytest** (so the entire test
suite dogfoods the conservation laws) and off otherwise (benchmark runs
measure the unchecked hot path).  The ``REPRO_CHECK_INVARIANTS``
environment variable overrides both defaults: any of ``1/true/yes/on``
forces checking on, ``0/false/no/off`` forces it off.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field

_TRUTHY = ("1", "true", "yes", "on")
_FALSY = ("0", "false", "no", "off", "")


def _env_flag(name: str, default: bool) -> bool:
    """``default`` when ``name`` is unset, else its flag spelling's value."""
    override = os.environ.get(name)
    if override is None:
        return default
    value = override.strip().lower()
    if value in _TRUTHY:
        return True
    if value in _FALSY:
        return False
    raise ValueError(
        f"{name} must be one of {_TRUTHY + _FALSY}, got {override!r}"
    )


def _env_number(name: str, default, cast, above):
    """``cast`` of ``name``'s value, which must be finite and ``> above``;
    ``default`` when the variable is unset or blank."""
    override = os.environ.get(name)
    if override is None or not override.strip():
        return default
    try:
        value = cast(override)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > above):
        raise ValueError(
            f"{name} must be a finite {cast.__name__} above {above}, "
            f"got {override!r}"
        )
    return value


def _trace_path() -> str | None:
    """The JSONL path ``REPRO_TRACE`` names, unless it spells a flag
    (the flag-or-path rule is in :class:`RuntimeConfig`'s docstring)."""
    value = os.environ.get("REPRO_TRACE", "").strip()
    return None if value.lower() in _TRUTHY + _FALSY else value


@dataclass
class RuntimeConfig:
    """Per-session runtime switches.

    ``check_invariants`` — attach an
    :class:`~repro.runtime.invariants.InvariantChecker` to the session's
    :class:`~repro.runtime.metrics.MetricsCollector`, auditing every
    channel ship, driver call, superstep barrier, and solution-set delta
    application against its conservation law.

    ``trace`` — attach a :class:`~repro.observability.Tracer` to the
    session's collector: optimizer phases, operator execution, channel
    ships, and superstep barriers record a span tree (see
    :mod:`repro.observability`).  Off by default — tracing is opt-in —
    and overridden by the ``REPRO_TRACE`` environment variable: a
    truthy value turns it on, a falsy value off, and any other value is
    treated as *on* plus the path of a JSONL event log to write
    (``trace_path``) when the session executes a plan.

    ``batch_size`` — how many records one
    :class:`~repro.common.batch.RecordBatch` carries on the data plane:
    channels frame their scatter in chunks of this size and drivers
    build key vectors per chunk (an SPMD exchange still sends each
    peer's frame as one message).  ``1`` is the degenerate
    record-at-a-time mode (every record pays the full per-batch framing
    overhead); results and logical counters are identical at every
    setting.
    ``REPRO_BATCH_SIZE`` supplies the default (1024 when unset).

    ``async_poll_batch`` — how many queue elements one partition drains
    per round in asynchronous delta iterations (interleaving
    granularity; any value must converge to the same fixpoint).

    ``memory_budget_bytes`` — per-process budget for operator state in
    bytes, or ``None`` for unbounded in-memory execution (the
    default).  When set, the executor attaches a
    :class:`~repro.storage.SpillManager`: keyed drivers take
    partition-and-spill / external-sort paths once their estimated
    resident state crosses the budget, and delta iterations keep the
    solution set in a disk-backed index.  Results and logical counters
    are bitwise identical at every setting; only the physical
    ``records_spilled`` / ``bytes_spilled`` counters differ.
    ``REPRO_MEMORY_BUDGET`` (bytes) supplies the default; an empty
    value or ``0`` keeps execution fully in-memory.

    ``telemetry`` — attach a live
    :class:`~repro.observability.telemetry.MetricRegistry` to the
    session: superstep barriers sample levels (executor residency,
    spill levels, pending fabric frames) into gauges, a histogram and a
    resource time series while the job runs, every job bills its
    collector counts into it, pool workers ship heartbeats for the
    :class:`~repro.observability.health.HealthMonitor`, and the session
    keeps a per-job :class:`~repro.observability.telemetry.ResourceLedger`.
    Off by default (the superstep hooks are a single ``None`` check);
    ``REPRO_TELEMETRY`` supplies the default.  Telemetry never touches
    results or logical counters — the differential audit's telemetry legs
    enforce bitwise identity.

    ``heartbeat_interval_s`` — cadence of pool-worker heartbeats when
    telemetry is on, a positive finite number of seconds;
    ``REPRO_HEARTBEAT_INTERVAL`` supplies the default (0.5 when unset).
    """

    check_invariants: bool = field(default_factory=lambda: _env_flag(
        "REPRO_CHECK_INVARIANTS", "pytest" in sys.modules))
    trace: bool = field(default_factory=lambda: (
        _trace_path() is not None or _env_flag("REPRO_TRACE", False)))
    trace_path: str | None = field(default_factory=_trace_path)
    batch_size: int = field(default_factory=lambda: _env_number(
        "REPRO_BATCH_SIZE", 1024, int, above=0))
    async_poll_batch: int = 64
    # 0 spells "unbounded", like leaving the variable unset
    memory_budget_bytes: int | None = field(
        default_factory=lambda: _env_number(
            "REPRO_MEMORY_BUDGET", None, int, above=-1) or None)
    telemetry: bool = field(default_factory=lambda: _env_flag(
        "REPRO_TELEMETRY", False))
    heartbeat_interval_s: float = field(default_factory=lambda: _env_number(
        "REPRO_HEARTBEAT_INTERVAL", 0.5, float, above=0))

    def __post_init__(self):
        for name in ("check_invariants", "trace", "telemetry"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise TypeError(
                    f"RuntimeConfig.{name} must be a bool, got {value!r}"
                )
        for name in ("batch_size", "async_poll_batch"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(
                    f"RuntimeConfig.{name} must be an int, got {value!r}"
                )
            if value < 1:
                raise ValueError(
                    f"RuntimeConfig.{name} must be >= 1, got {value}"
                )
        interval = self.heartbeat_interval_s
        # nan would spin the heartbeat thread, inf overflow its wait
        if isinstance(interval, bool) or \
                not isinstance(interval, (int, float)) or \
                not (math.isfinite(interval) and interval > 0):
            raise ValueError(
                f"RuntimeConfig.heartbeat_interval_s must be a positive "
                f"finite number, got {interval!r}"
            )
        budget = self.memory_budget_bytes
        if budget is not None:
            if isinstance(budget, bool) or not isinstance(budget, int):
                raise TypeError(
                    f"RuntimeConfig.memory_budget_bytes must be an int "
                    f"or None, got {budget!r}"
                )
            if budget < 1:
                raise ValueError(
                    f"RuntimeConfig.memory_budget_bytes must be >= 1, "
                    f"got {budget}"
                )

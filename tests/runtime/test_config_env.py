"""Every ``REPRO_*`` variable in one table: default, spellings, malformed."""

import pytest

from repro.runtime.config import RuntimeConfig

TRUTHY = ("1", "true", "YES", " on ")
FALSY = ("0", "false", "No", " off ", "")

#: variable, field, value when unset / spelled truthy / spelled falsy
FLAGS = [
    # unset means "on under pytest" — which is where this runs
    ("REPRO_CHECK_INVARIANTS", "check_invariants", True, True, False),
    ("REPRO_TRACE", "trace", False, True, False),
    ("REPRO_COLUMNAR", "columnar", True, True, False),
    ("REPRO_TELEMETRY", "telemetry", False, True, False),
]

#: variable, field, value when unset, {spelling: value}, malformed spellings
NUMBERS = [
    ("REPRO_BATCH_SIZE", "batch_size", 1024,
     {"1": 1, " 64 ": 64, "": 1024},
     ["0", "-3", "2.5", "many"]),
    ("REPRO_MEMORY_BUDGET", "memory_budget_bytes", None,
     {"4096": 4096, "0": None, "": None},
     ["-1", "8k"]),
    ("REPRO_HEARTBEAT_INTERVAL", "heartbeat_interval_s", 0.5,
     {"0.1": 0.1, "2": 2.0},
     ["0", "-1", "nan", "inf", "fast"]),
]


@pytest.fixture(autouse=True)
def _no_repro_variables(monkeypatch):
    for name, *_ in FLAGS + NUMBERS:
        monkeypatch.delenv(name, raising=False)


@pytest.mark.parametrize("name,field,unset,truthy,falsy", FLAGS)
def test_flag_variable(monkeypatch, name, field, unset, truthy, falsy):
    assert getattr(RuntimeConfig(), field) is unset
    for spelling in TRUTHY:
        monkeypatch.setenv(name, spelling)
        assert getattr(RuntimeConfig(), field) is truthy
    for spelling in FALSY:
        monkeypatch.setenv(name, spelling)
        assert getattr(RuntimeConfig(), field) is falsy
    # an explicit argument beats the variable
    assert getattr(RuntimeConfig(**{field: unset}), field) is unset


@pytest.mark.parametrize(
    "name", [name for name, *_ in FLAGS if name != "REPRO_TRACE"]
)
def test_malformed_flag_names_the_variable(monkeypatch, name):
    monkeypatch.setenv(name, "maybe")
    with pytest.raises(ValueError, match=f"{name} must be one of .*'off'"):
        RuntimeConfig()


def test_trace_variable_is_a_flag_or_a_path(monkeypatch):
    assert RuntimeConfig().trace_path is None
    monkeypatch.setenv("REPRO_TRACE", "on")
    assert RuntimeConfig().trace_path is None
    monkeypatch.setenv("REPRO_TRACE", " /tmp/run.jsonl ")
    config = RuntimeConfig()
    assert config.trace is True
    assert config.trace_path == "/tmp/run.jsonl"


@pytest.mark.parametrize("name,field,unset,spellings,malformed", NUMBERS)
def test_number_variable(monkeypatch, name, field, unset, spellings,
                         malformed):
    assert getattr(RuntimeConfig(), field) == unset
    for spelling, value in spellings.items():
        monkeypatch.setenv(name, spelling)
        assert getattr(RuntimeConfig(), field) == value
    for spelling in malformed:
        monkeypatch.setenv(name, spelling)
        with pytest.raises(ValueError, match=f"{name} must be a finite"):
            RuntimeConfig()


@pytest.mark.parametrize("field", [field for _, field, *_ in FLAGS])
def test_flag_fields_take_only_bools(field):
    with pytest.raises(TypeError, match=field):
        RuntimeConfig(**{field: "yes"})
    with pytest.raises(TypeError, match=field):
        RuntimeConfig(**{field: 1})


@pytest.mark.parametrize(
    "interval", [float("nan"), float("inf"), 0, -0.5, True, "1"]
)
def test_heartbeat_interval_must_be_positive_and_finite(interval):
    # nan spins the heartbeat thread, inf overflows its Event.wait
    with pytest.raises(ValueError, match="heartbeat_interval_s"):
        RuntimeConfig(heartbeat_interval_s=interval)

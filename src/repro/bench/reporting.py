"""Plain-text report rendering for the benchmark harness."""

from __future__ import annotations

import json
import os
import platform
import sys
import time


def bench_meta(**knobs) -> dict:
    """The common ``meta`` envelope every ``BENCH_*.json`` payload carries.

    Records the host and interpreter (``host_cpus``, ``python``,
    ``platform``), a UTC timestamp, and whatever config knobs the
    experiment passes (batch size, memory budget, backend, ...) — so a
    result file is comparable across hosts and across the repo's own
    history without guessing what produced it.
    """
    return {
        "host_cpus": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": sys.platform,
        "timestamp": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        ),
        "knobs": {key: value for key, value in sorted(knobs.items())},
    }


def format_seconds(value: float) -> str:
    if value >= 100:
        return f"{value:,.0f} s"
    if value >= 1:
        return f"{value:.2f} s"
    return f"{value * 1000:.1f} ms"


def format_quantity(value) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 1000 or (value and abs(value) < 0.01):
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    if isinstance(value, int) and abs(value) >= 10_000:
        return f"{value:,}"
    return str(value)


def render_table(title: str, headers: list[str], rows: list[list]) -> str:
    """Aligned fixed-width table like the paper's result listings."""
    cells = [[format_quantity(v) if not isinstance(v, str) else v
              for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells))
        if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append(
            "  ".join(row[i].rjust(widths[i]) if _numeric(row[i])
                      else row[i].ljust(widths[i])
                      for i in range(len(headers)))
        )
    return "\n".join(lines)


def _numeric(text: str) -> bool:
    stripped = text.replace(",", "").replace(".", "").replace("-", "")
    stripped = stripped.replace("e", "").replace("+", "").replace(" s", "")
    stripped = stripped.replace(" ms", "").replace("x", "")
    return stripped.isdigit()


def results_dir() -> str:
    """Where benchmark reports are persisted (created on demand)."""
    here = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))
    )))
    path = os.path.join(here, "benchmarks", "results")
    os.makedirs(path, exist_ok=True)
    return path


def traces_dir() -> str:
    """Where trace artifacts (JSONL, Chrome traces) land (created on demand)."""
    path = os.path.join(results_dir(), "traces")
    os.makedirs(path, exist_ok=True)
    return path


def write_artifact(name: str, payload: dict) -> str:
    """Write a gate's JSON artifact under benchmarks/results/; returns
    its path."""
    path = os.path.join(results_dir(), name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path


def persist_report(name: str, text: str) -> str:
    """Write a report under benchmarks/results/ and echo it to stdout."""
    path = os.path.join(results_dir(), f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print("\n" + text)
    return path

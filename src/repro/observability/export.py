"""Trace consumers: JSONL event logs and Chrome/Perfetto timelines.

Both exporters consume *timelines* — ``(label, Tracer)`` pairs, one per
process whose spans should be rendered on its own row: the driver for a
simulated run, one row per worker for a multiprocess run.

* :func:`write_jsonl` — one JSON object per line: a leading ``meta``
  record, then every span in depth-first preorder with its timeline
  label, depth, timestamps, attributes, and counter deltas.  Grep-able,
  diff-able, and the machine-readable artifact CI uploads.
* :func:`to_chrome_trace` — the Trace Event Format understood by
  ``chrome://tracing`` and https://ui.perfetto.dev: complete (``X``)
  events for spans, instant (``i``) events for markers, with counter
  deltas and attributes in ``args``.  Timestamps are normalized to the
  earliest span so the timeline starts at zero.
"""

from __future__ import annotations

import json
import os


def _normalize_timelines(timelines):
    """Accept a Tracer, a list of Tracers, or (label, Tracer) pairs."""
    from repro.observability.tracer import Tracer
    if isinstance(timelines, Tracer):
        timelines = [timelines]
    out = []
    for entry in timelines:
        if isinstance(entry, Tracer):
            out.append((f"worker-{entry.rank}", entry))
        else:
            label, tracer = entry
            out.append((str(label), tracer))
    return out


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


def write_jsonl(path, timelines, meta=None) -> str:
    """Write timelines as a JSONL event log; returns ``path``."""
    timelines = _normalize_timelines(timelines)
    directory = os.path.dirname(os.path.abspath(path))
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        header = {
            "type": "meta",
            "timelines": [label for label, _tracer in timelines],
        }
        header.update(_jsonable(meta or {}))
        handle.write(json.dumps(header) + "\n")
        for label, tracer in timelines:
            for record in _span_records(label, tracer):
                handle.write(json.dumps(record) + "\n")
    return path


def _span_records(label, tracer):
    def walk(span, depth):
        yield {
            "type": "instant" if span.is_instant else "span",
            "timeline": label,
            "rank": tracer.rank,
            "name": span.name,
            "category": span.category,
            "depth": depth,
            "start_s": span.start_s,
            "end_s": span.end_s,
            "duration_s": span.duration_s,
            "attributes": _jsonable(span.attributes),
            "counters": dict(span.counters),
        }
        for child in span.children:
            yield from walk(child, depth + 1)

    for root in tracer.roots:
        yield from walk(root, 0)


def to_chrome_trace(timelines, series=None) -> dict:
    """Encode timelines in the ``chrome://tracing`` Trace Event Format.

    ``series`` optionally carries telemetry time-series samples (the
    dicts of :attr:`~repro.observability.telemetry.MetricRegistry.series`);
    they are rendered as counter (``C``) tracks.  Spans and samples
    share the ``perf_counter`` timebase, so spill bytes, pending frames
    and worker RSS line up under the span timeline in the Perfetto UI.
    """
    timelines = _normalize_timelines(timelines)
    series = series or []
    starts = [
        span.start_s
        for _label, tracer in timelines
        for span in tracer.iter_spans()
    ] + [sample["t_s"] for sample in series]
    origin = min(starts) if starts else 0.0
    events = [{
        "ph": "M", "name": "process_name", "pid": 0,
        "args": {"name": "repro"},
    }]

    def micros(seconds):
        return (seconds - origin) * 1e6

    for tid, (label, tracer) in enumerate(timelines):
        events.append({
            "ph": "M", "name": "thread_name", "pid": 0, "tid": tid,
            "args": {"name": label},
        })
        for span in tracer.iter_spans():
            args = {**_jsonable(span.attributes), **dict(span.counters)}
            if span.is_instant:
                events.append({
                    "name": span.name, "cat": span.category, "ph": "i",
                    "s": "t", "pid": 0, "tid": tid,
                    "ts": micros(span.start_s), "args": args,
                })
            else:
                end_s = span.end_s if span.end_s is not None else span.start_s
                events.append({
                    "name": span.name, "cat": span.category, "ph": "X",
                    "pid": 0, "tid": tid, "ts": micros(span.start_s),
                    "dur": max(micros(end_s) - micros(span.start_s), 0.001),
                    "args": args,
                })
    for sample in series:
        labels = sample.get("labels") or {}
        suffix = "".join(
            f"[{key}={labels[key]}]" for key in sorted(labels)
        )
        events.append({
            "name": f"{sample['name']}{suffix}", "cat": "telemetry",
            "ph": "C", "pid": 0, "ts": micros(sample["t_s"]),
            "args": {"value": sample["value"]},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, timelines, series=None) -> str:
    """Write :func:`to_chrome_trace` output as JSON; returns ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_chrome_trace(timelines, series=series), handle)
    return path

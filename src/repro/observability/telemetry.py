"""Live telemetry: a typed metric registry and its exporters.

Tracing (:mod:`repro.observability.tracer`) explains a run *after* it
finished; this module is the engine's view of a run *while it runs*.
A :class:`MetricRegistry` holds three typed instruments —

* :class:`Counter` — monotonically increasing totals (bytes shipped,
  records spilled),
* :class:`Gauge` — instantaneous levels (resident bytes, frames
  pending at an endpoint, memo residency),
* :class:`Histogram` — distributions over **fixed bucket bounds**, so
  that merging histograms from different ranks is a plain bucket-wise
  sum and therefore deterministic regardless of merge order —

plus an append-only *time series* of ``(t_s, name, labels, value)``
samples recorded on the same ``time.perf_counter`` timebase the span
tracer uses, which is what lets the Perfetto exporter draw counter
tracks under the span timeline.  Every name holds one kind.

The registry counts nothing itself: the metrics collector owns every
count (:data:`~repro.runtime.metrics.COUNTERS`), and :func:`bill_job`
takes a job's counts from it once per rank, as ``rank``-labelled
counters.  Otherwise the registry keeps levels: the superstep
histogram, gauges read from the probes the executor registers for one
job, and the time series.  Instrumented sites (fabric endpoints, the
spill manager) hold no registry, only plain ints and a
``telemetry_probe``.  Enablement is ``RuntimeConfig(telemetry=...)`` /
``REPRO_TELEMETRY``; results and logical counters are bitwise identical
either way (enforced by the differential audit's telemetry legs).

Registries are per-process.  SPMD workers ship ``snapshot()`` dicts
home with their job payloads; the parent folds them in rank order with
:meth:`MetricRegistry.merge_snapshot` (counters and histogram buckets
sum, gauges take the elementwise max, label sets union) — per-rank
counters carry a ``rank`` label, so nothing collides.

Consumers: :func:`prometheus_text` (Prometheus exposition format),
:func:`write_prometheus`, :func:`write_series_jsonl` (the JSONL
time-series artifact), and the live terminal monitor of
``python -m repro.bench monitor`` (see :mod:`repro.bench.monitor`).
"""

from __future__ import annotations

import json
import os
import time

from repro.runtime.metrics import COUNTERS

#: default histogram bounds for superstep durations (seconds); chosen
#: once and fixed so cross-rank merges are bucket-wise sums
DURATION_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

#: soft cap on recorded time-series samples per registry; beyond it new
#: samples are dropped (and counted) instead of growing without bound
MAX_SERIES_SAMPLES = 200_000


def read_rss_bytes() -> int:
    """This process's current resident set size in bytes (0 if unknown).

    Linux: ``/proc/self/statm`` resident pages.  Fallback: the peak RSS
    from ``getrusage`` (coarser — a high-water mark, not a level).
    """
    try:
        with open("/proc/self/statm", "rb") as fh:
            fields = fh.read().split()
        return int(fields[1]) * (os.sysconf("SC_PAGE_SIZE") or 4096)
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return int(usage.ru_maxrss) * 1024
    except Exception:  # pragma: no cover - no resource module
        return 0


def read_peak_rss_bytes() -> int:
    """This process's peak resident set size in bytes (0 if unknown)."""
    try:
        import resource
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return int(usage.ru_maxrss) * 1024
    except Exception:  # pragma: no cover - no resource module
        return 0


def _label_key(labels) -> tuple:
    """Canonical hashable encoding of a labels mapping."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing total."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name} cannot decrease (inc({amount}))"
            )
        self.value += amount


class Gauge:
    """An instantaneous level; ``set`` overwrites, ``add`` adjusts."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def add(self, amount) -> None:
        self.value += amount


class Histogram:
    """A distribution over fixed, ascending bucket upper bounds.

    ``bucket_counts[i]`` counts observations ``<= bounds[i]``
    (non-cumulative); observations above the last bound land in the
    implicit overflow bucket.  Because the bounds are fixed at creation
    and must match to merge, merging is a bucket-wise sum — the same
    totals whatever order ranks are folded in.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count", "sum")

    def __init__(self, name: str, bounds=DURATION_BUCKETS, labels: tuple = ()):
        bounds = tuple(float(b) for b in bounds)
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(
                f"histogram {name} needs ascending bucket bounds, "
                f"got {bounds!r}"
            )
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value) -> None:
        self.count += 1
        self.sum += value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1


class MetricRegistry:
    """One process's live metrics: typed instruments plus a time series.

    Not thread-safe by design — each instrumented process mutates its
    own registry from its execution thread; cross-process aggregation
    goes through picklable :meth:`snapshot` dicts.
    """

    def __init__(self, rank: int = 0):
        self.rank = rank
        self._metrics: dict[tuple, object] = {}
        #: the one kind each name holds, whatever its labels
        self._kinds: dict[str, str] = {}
        #: recorded time-series samples: dicts of t_s/name/labels/value
        self.series: list[dict] = []
        self.series_dropped = 0
        #: optional :class:`~repro.observability.health.WorkerVitals`
        #: mirror — superstep hooks keep it fresh for heartbeats
        self.vitals = None
        #: zero-argument callables returning {name: value} gauge samples,
        #: polled at every superstep boundary (executor residency, spill
        #: levels, frames pending at the fabric endpoint)
        self._probes: list = []
        #: set by the executor for a job with a memory budget: only
        #: then do its supersteps' ``bytes_spilled`` make a series
        self.spill_track = False

    # ------------------------------------------------------------------
    # instruments

    def _instrument(self, cls, name, labels, **kwargs):
        kind = self._kinds.setdefault(name, cls.kind)
        if kind != cls.kind:
            raise ValueError(
                f"metric {name!r} already registered as {kind}, "
                f"not {cls.kind}"
            )
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, labels=key[1], **kwargs)
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, labels=None) -> Counter:
        return self._instrument(Counter, name, labels)

    def gauge(self, name: str, labels=None) -> Gauge:
        return self._instrument(Gauge, name, labels)

    def histogram(self, name: str, bounds=DURATION_BUCKETS,
                  labels=None) -> Histogram:
        metric = self._instrument(Histogram, name, labels, bounds=bounds)
        if metric.bounds != tuple(float(b) for b in bounds):
            raise ValueError(
                f"histogram {name!r} already registered with bounds "
                f"{metric.bounds}, got {tuple(bounds)}"
            )
        return metric

    def metrics(self):
        """All instruments, sorted by (name, labels) — deterministic."""
        return [self._metrics[key] for key in sorted(self._metrics)]

    def get(self, name: str, labels=None):
        """The instrument registered under (name, labels), or ``None``."""
        return self._metrics.get((name, _label_key(labels)))

    def value(self, name: str, labels=None, default=0):
        """Scalar value of a counter/gauge, or ``default`` if absent."""
        metric = self.get(name, labels)
        if metric is None:
            return default
        return metric.value

    def total(self, name: str) -> float:
        """Sum of a counter/gauge over every label set (0 if absent)."""
        return sum(
            m.value for m in self._metrics.values()
            if m.name == name and m.kind != "histogram"
        )

    # ------------------------------------------------------------------
    # time series

    def record(self, name: str, value, t_s: float | None = None,
               labels=None) -> None:
        """Append one time-series sample (perf_counter timebase)."""
        if len(self.series) >= MAX_SERIES_SAMPLES:
            self.series_dropped += 1
            return
        self.series.append({
            "t_s": time.perf_counter() if t_s is None else t_s,
            "name": name,
            "labels": dict(labels) if labels else {"rank": self.rank},
            "value": value,
        })

    def add_probe(self, probe) -> None:
        """Register a superstep-boundary sampler (``() -> {name: value}``)."""
        self._probes.append(probe)

    def remove_probe(self, probe) -> None:
        """Unregister a sampler when the job that added it ends."""
        self._probes.remove(probe)

    # ------------------------------------------------------------------
    # superstep hooks (called by MetricsCollector when attached)

    def note_superstep_begin(self, superstep: int) -> None:
        if self.vitals is not None:
            self.vitals.progress(superstep)

    def note_superstep_end(self, stats) -> None:
        """Fold one finished superstep into instruments and the series.

        ``stats`` is the superstep's
        :class:`~repro.runtime.metrics.IterationStats`; its
        ``bytes_spilled`` is the spill counter track while
        :attr:`spill_track` is set.
        """
        duration = stats.duration_s
        self.histogram("executor.superstep_duration_s").observe(duration)
        self.gauge("executor.superstep").set(stats.superstep)
        now = time.perf_counter()
        if duration > 0:
            self.record("executor.records_per_s",
                        stats.records_processed / duration, t_s=now)
            self.record("executor.batches_per_s",
                        stats.batches_shipped / duration, t_s=now)
        self.record("executor.workset_size", stats.workset_size, t_s=now)
        if self.spill_track:
            self.record("spill.bytes_spilled", stats.bytes_spilled, t_s=now)
        rss = read_rss_bytes()
        self.gauge("worker.rss_bytes").set(rss)
        self.record("worker.rss_bytes", rss, t_s=now)
        self.read_probes(now)
        if self.vitals is not None:
            self.vitals.progress(stats.superstep, rss_bytes=rss)

    def read_probes(self, t_s=None) -> None:
        """Set every probe's gauges; with a timestamp, also record each
        value as a series sample.  The executor reads them once more at
        job end, without one, so a job that ran no superstep still
        reports its levels."""
        for probe in self._probes:
            for name, value in probe().items():
                self.gauge(name).set(value)
                if t_s is not None:
                    self.record(name, value, t_s=t_s)

    # ------------------------------------------------------------------
    # snapshots and deterministic merging

    def snapshot(self) -> dict:
        """A picklable view: every instrument plus the recorded series."""
        out = []
        for metric in self.metrics():
            entry = {
                "name": metric.name,
                "kind": metric.kind,
                "labels": dict(metric.labels),
            }
            if metric.kind == "histogram":
                entry["bounds"] = list(metric.bounds)
                entry["bucket_counts"] = list(metric.bucket_counts)
                entry["count"] = metric.count
                entry["sum"] = metric.sum
            else:
                entry["value"] = metric.value
            out.append(entry)
        return {
            "rank": self.rank,
            "metrics": out,
            "series": list(self.series),
            "series_dropped": self.series_dropped,
        }

    def merge_snapshot(self, snap: dict) -> "MetricRegistry":
        """Fold another registry's snapshot into this one.

        Deterministic by construction: counters and histogram buckets
        sum, gauges take the elementwise max (levels from different
        ranks are not additive), series samples append.  Histograms
        with mismatched bounds refuse to merge.
        """
        for entry in snap.get("metrics", ()):
            labels = entry.get("labels") or {}
            kind = entry["kind"]
            if kind == "counter":
                self.counter(entry["name"], labels).inc(entry["value"])
            elif kind == "gauge":
                gauge = self.gauge(entry["name"], labels)
                gauge.set(max(gauge.value, entry["value"]))
            else:
                hist = self.histogram(
                    entry["name"], bounds=entry["bounds"], labels=labels
                )
                if list(hist.bounds) != [float(b) for b in entry["bounds"]]:
                    raise ValueError(
                        f"histogram {entry['name']!r}: cannot merge "
                        f"bounds {entry['bounds']} into {list(hist.bounds)}"
                    )
                for index, count in enumerate(entry["bucket_counts"]):
                    hist.bucket_counts[index] += count
                hist.count += entry["count"]
                hist.sum += entry["sum"]
        for sample in snap.get("series", ()):
            if len(self.series) >= MAX_SERIES_SAMPLES:
                self.series_dropped += 1
            else:
                self.series.append(sample)
        self.series_dropped += snap.get("series_dropped", 0)
        return self


def attach_telemetry(metrics, rank: int = 0,
                     vitals=None) -> MetricRegistry:
    """Attach a fresh registry to a collector and return it (idempotent).

    Mirrors :func:`~repro.observability.tracer.attach_tracer`: superstep
    barriers then feed :meth:`MetricRegistry.note_superstep_end`, and
    ``vitals`` (a :class:`~repro.observability.health.WorkerVitals`)
    receives progress marks for the heartbeat thread to sample.
    """
    if metrics.telemetry is None:
        registry = MetricRegistry(rank=rank)
        registry.vitals = vitals
        metrics.telemetry = registry
    return metrics.telemetry


# ----------------------------------------------------------------------
# per-job resource accounting (admission-control input)


#: the collector counters a job's resource bill carries
BILLED_COUNTERS = ("bytes_shipped", "bytes_spilled", "records_spilled")


class JobResources:
    """One worker's resource bill for one job."""

    __slots__ = ("job", "rank", "wall_s", "cpu_s",
                 "peak_rss_bytes") + BILLED_COUNTERS

    def __init__(self, job, rank, wall_s, cpu_s, peak_rss_bytes,
                 **billed):
        self.job = job
        self.rank = rank
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.peak_rss_bytes = peak_rss_bytes
        for name in BILLED_COUNTERS:
            setattr(self, name, billed.pop(name, 0))
        if billed:
            raise TypeError(f"not a billed counter: {sorted(billed)}")

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class ResourceLedger:
    """Per-job resource accounting across workers.

    The input the multi-tenant job manager (ROADMAP item 5) needs for
    admission control and per-job caps: for every job, cpu seconds
    (summed over ranks), peak RSS (max over ranks — budgets are
    per-process), and the :data:`BILLED_COUNTERS` (summed).
    """

    def __init__(self):
        self.entries: list[JobResources] = []

    def add(self, entry: JobResources) -> None:
        self.entries.append(entry)

    @property
    def jobs(self) -> list:
        seen = []
        for entry in self.entries:
            if entry.job not in seen:
                seen.append(entry.job)
        return seen

    def job_totals(self, job) -> dict:
        mine = [e for e in self.entries if e.job == job]
        if not mine:
            raise KeyError(f"no resource entries for job {job!r}")
        return {
            "job": job,
            "workers": len(mine),
            "wall_s": max(e.wall_s for e in mine),
            "cpu_s": sum(e.cpu_s for e in mine),
            "peak_rss_bytes": max(e.peak_rss_bytes for e in mine),
            **{name: sum(getattr(e, name) for e in mine)
               for name in BILLED_COUNTERS},
        }

    def totals(self) -> dict:
        """Aggregate over all jobs (peak RSS stays a max, not a sum)."""
        per_job = [self.job_totals(job) for job in self.jobs]
        return {
            "jobs": len(per_job),
            "wall_s": sum(t["wall_s"] for t in per_job),
            "cpu_s": sum(t["cpu_s"] for t in per_job),
            "peak_rss_bytes": max(
                (t["peak_rss_bytes"] for t in per_job), default=0
            ),
            **{name: sum(t[name] for t in per_job)
               for name in BILLED_COUNTERS},
        }


def bill_job(registry, job, rank, wall_s, cpu_s, executor,
             totals) -> JobResources:
    """Bill one rank's job and return its :class:`ResourceLedger` line.

    ``totals`` (the job's :data:`~repro.runtime.metrics.COUNTERS`, in
    order), the spill files ``executor`` opened and the frames its
    endpoint sent (zero on the simulator, which has no endpoint),
    become ``rank``-labelled counters in ``registry`` — the
    only place the registry counts.
    """
    counts = dict(zip(COUNTERS, totals))
    spill = executor.spill
    counts["spill.files"] = spill.spill_files if spill is not None else 0
    endpoint = getattr(executor.cluster, "endpoint", None)
    counts["fabric.frames_sent"] = getattr(endpoint, "frames_sent", 0)
    labels = {"rank": rank}
    for name, value in counts.items():
        registry.counter(name, labels).inc(value)
    return JobResources(
        job, rank, wall_s, cpu_s, read_peak_rss_bytes(),
        **{name: counts[name] for name in BILLED_COUNTERS},
    )


# ----------------------------------------------------------------------
# exporters


def _prometheus_name(name: str) -> str:
    sanitized = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    return f"repro_{sanitized}"


def _prometheus_labels(labels, extra=None) -> str:
    pairs = dict(labels)
    if extra:
        pairs.update(extra)
    if not pairs:
        return ""
    body = ",".join(
        f'{key}="{value}"' for key, value in sorted(pairs.items())
    )
    return "{" + body + "}"


def prometheus_text(registry: MetricRegistry) -> str:
    """Render the registry in the Prometheus exposition format."""
    lines = []
    seen_types = set()
    for metric in registry.metrics():
        name = _prometheus_name(metric.name)
        if name not in seen_types:
            seen_types.add(name)
            lines.append(f"# TYPE {name} {metric.kind}")
        if metric.kind == "histogram":
            cumulative = 0
            for bound, count in zip(metric.bounds, metric.bucket_counts):
                cumulative += count
                labels = _prometheus_labels(metric.labels, {"le": bound})
                lines.append(f"{name}_bucket{labels} {cumulative}")
            labels = _prometheus_labels(metric.labels, {"le": "+Inf"})
            lines.append(f"{name}_bucket{labels} {metric.count}")
            plain = _prometheus_labels(metric.labels)
            lines.append(f"{name}_sum{plain} {metric.sum}")
            lines.append(f"{name}_count{plain} {metric.count}")
        else:
            labels = _prometheus_labels(metric.labels)
            lines.append(f"{name}{labels} {metric.value}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(path: str, registry: MetricRegistry) -> str:
    """Write :func:`prometheus_text` output to ``path``; returns it."""
    directory = os.path.dirname(os.path.abspath(path))
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(prometheus_text(registry))
    return path


def write_series_jsonl(path: str, registry: MetricRegistry,
                       meta=None) -> str:
    """Write the recorded time series as JSONL; returns ``path``.

    One ``meta`` header line, then one JSON object per sample in
    recorded order — the machine-readable resource time-series artifact
    (the optimizer's and job manager's input).
    """
    directory = os.path.dirname(os.path.abspath(path))
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        header = {
            "type": "meta",
            "samples": len(registry.series),
            "series_dropped": registry.series_dropped,
        }
        header.update(meta or {})
        handle.write(json.dumps(header) + "\n")
        for sample in registry.series:
            handle.write(json.dumps(sample) + "\n")
    return path

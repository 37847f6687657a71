"""Span-based tracing for the runtime's execution phases.

A :class:`Tracer` records a forest of :class:`Span` trees: optimizer
phases, per-operator driver execution, channel ships, superstep
barriers, cache builds/hits.  Spans carry wall-clock timestamps *and*
logical counter deltas sampled from the bound
:class:`~repro.runtime.metrics.MetricsCollector` at begin/end — so a
span answers both "how long" and "how many records" for its subtree.

Two properties make traces comparable across execution backends:

* **Canonical names.**  Logical node names carry globally unique
  ``#<id>`` suffixes; :func:`canonical_name` strips them, so the same
  program traced in two environments produces the same span names.
* **Deterministic structure.**  Spans are only emitted at code points
  executed identically by the in-process simulator and every SPMD
  worker (operator dispatch, channel ships, superstep barriers) — never
  inside backend-specific branches.  Per-worker span trees are
  therefore structurally identical, which is what lets
  :meth:`Tracer.merge` fold them pairwise like
  ``MetricsCollector.merge`` folds counters: names and nesting must
  match, counters sum, durations take the slowest worker.  The one
  exception is *physical* detail: spill writes and read-backs
  (``storage`` spans, :data:`PER_WORKER_CATEGORIES`) depend on each
  worker's own budget and data, so the aligned merge keeps every
  worker's storage spans side by side instead of pairing them.

Well-nestedness is enforced: ``end`` must close the innermost open
span, and the invariant checker's trace law
(:meth:`~repro.runtime.invariants.InvariantChecker.check_trace`)
verifies at every quiescent point that the forest is closed and that
superstep-span counter deltas reconcile with ``iteration_log``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.common.errors import InvariantViolation
from repro.runtime.metrics import (
    BARRIER_SIZES,
    COUNTERS,
    LOGICAL_COUNTERS,
    canonical_name,
)

#: collector totals sampled at span begin/end; a span's ``counters``
#: holds the (non-zero) deltas between the two samples
SPAN_COUNTERS = COUNTERS

#: the counters that must be identical across backends (physical
#: quantities — bytes, cache, durations — legitimately differ between
#: the simulator and real workers); used for structural comparisons
LOGICAL_SPAN_COUNTERS = LOGICAL_COUNTERS + BARRIER_SIZES


#: span categories that are per-worker physical detail: never paired
#: by the aligned merge, each worker's spans are kept
PER_WORKER_CATEGORIES = frozenset({"storage"})


class Span:
    """One timed phase: a name, a category, attributes, counter deltas."""

    __slots__ = ("name", "category", "attributes", "counters", "children",
                 "start_s", "end_s", "_begin_sample")

    def __init__(self, name, category, attributes=None):
        self.name = name
        self.category = category
        self.attributes = dict(attributes) if attributes else {}
        self.counters: dict = {}
        self.children: list = []
        self.start_s = 0.0
        self.end_s = None
        self._begin_sample = None

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    @property
    def is_instant(self) -> bool:
        return self.end_s == self.start_s

    def __repr__(self):
        state = "open" if self.end_s is None else f"{self.duration_s:.6f}s"
        return (f"<Span {self.category}:{self.name} {state} "
                f"children={len(self.children)}>")


def _copy_span(span: Span) -> Span:
    out = Span(span.name, span.category, span.attributes)
    out.counters = dict(span.counters)
    out.start_s = span.start_s
    out.end_s = span.end_s
    out.children = [_copy_span(child) for child in span.children]
    return out


class Tracer:
    """Records a forest of well-nested spans for one collector.

    Bind to a :class:`MetricsCollector` via :func:`attach_tracer`; the
    collector opens/closes superstep spans from its barrier hooks and
    the runtime layers wrap their phases with :meth:`span`.
    """

    def __init__(self, rank: int = 0):
        self.rank = rank
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._metrics = None

    # ------------------------------------------------------------------
    # recording

    def bind(self, metrics):
        """Sample counter deltas from ``metrics`` at span boundaries."""
        self._metrics = metrics
        return self

    def _sample(self):
        return None if self._metrics is None else self._metrics.sample()

    def begin(self, name, category: str = "runtime", **attributes) -> Span:
        span = Span(canonical_name(name), category, attributes)
        span._begin_sample = self._sample()
        span.start_s = time.perf_counter()
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span | None = None, counters=None,
            **attributes) -> Span:
        if not self._stack:
            raise InvariantViolation(
                "end() without an open span — spans must be well-nested"
            )
        top = self._stack[-1]
        if span is not None and top is not span:
            raise InvariantViolation(
                f"span {span.name!r} ended while {top.name!r} is the "
                "innermost open span — spans must be well-nested"
            )
        self._stack.pop()
        top.end_s = time.perf_counter()
        begin_sample = top._begin_sample
        end_sample = self._sample()
        if begin_sample is not None and end_sample is not None:
            for key, before, after in zip(SPAN_COUNTERS, begin_sample,
                                          end_sample):
                delta = after - before
                if delta:
                    top.counters[key] = delta
        top._begin_sample = None
        if counters:
            for key, value in counters.items():
                top.counters[key] = top.counters.get(key, 0) + value
        if attributes:
            top.attributes.update(attributes)
        return top

    @contextmanager
    def span(self, name, category: str = "runtime", **attributes):
        opened = self.begin(name, category, **attributes)
        try:
            yield opened
        finally:
            self.end(opened)

    def instant(self, name, category: str = "runtime", **attributes) -> Span:
        """A zero-duration marker attached to the innermost open span."""
        span = Span(canonical_name(name), category, attributes)
        span.start_s = span.end_s = time.perf_counter()
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        return span

    @property
    def open_depth(self) -> int:
        return len(self._stack)

    # ------------------------------------------------------------------
    # views

    def iter_spans(self):
        """All spans in depth-first preorder (the deterministic order)."""
        stack = list(reversed(self.roots))
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))

    def structure(self, counter_names=()) -> tuple:
        """A hashable (name, category, counters, children) encoding.

        Timestamps are excluded; pass ``LOGICAL_SPAN_COUNTERS`` to also
        pin the backend-invariant counter deltas.
        """
        def encode(span):
            return (
                span.name,
                span.category,
                tuple((c, span.counters.get(c, 0)) for c in counter_names),
                tuple(encode(child) for child in span.children),
            )
        return tuple(encode(root) for root in self.roots)

    def snapshot(self) -> "Tracer":
        """An independent structural copy (used to keep per-worker
        timelines before the aligned merge mutates worker 0's tree)."""
        if self._stack:
            raise InvariantViolation(
                "cannot snapshot a tracer with open spans"
            )
        out = Tracer(rank=self.rank)
        out.roots = [_copy_span(root) for root in self.roots]
        return out

    def reset(self):
        if self._stack:
            raise InvariantViolation("cannot reset a tracer with open spans")
        self.roots.clear()

    # ------------------------------------------------------------------
    # merging (mirrors MetricsCollector.merge)

    def merge(self, other: "Tracer", align: bool = True) -> "Tracer":
        """Fold another tracer's forest into this one.

        ``align=True`` pairs the forests of *parallel* workers that
        traced the same program: structures must match span for span,
        counters sum, time windows widen to cover both workers —
        except spans of a :data:`PER_WORKER_CATEGORIES` category, which
        are appended rather than paired.
        ``align=False`` appends a *sequential* phase's roots.
        """
        if self._stack or other._stack:
            raise InvariantViolation("cannot merge tracers with open spans")
        if not align:
            self.roots.extend(other.roots)
            return self
        _align(self.roots, other.roots, "trace forest roots")
        return self


def _align(mine: list, theirs: list, where: str) -> None:
    """Pair two workers' sibling lists: logical spans one for one,
    per-worker spans of ``theirs`` appended to ``mine``."""
    mine_logical = _logical(mine)
    theirs_logical = _logical(theirs)
    if len(mine_logical) != len(theirs_logical):
        raise InvariantViolation(
            f"{where}: {len(mine_logical)} spans here vs "
            f"{len(theirs_logical)} in the other worker's trace — the "
            "workers did not trace the same program"
        )
    mine.extend(
        span for span in theirs if span.category in PER_WORKER_CATEGORIES
    )
    for mine_span, theirs_span in zip(mine_logical, theirs_logical):
        _merge_span(mine_span, theirs_span)


def _logical(spans) -> list:
    return [
        span for span in spans if span.category not in PER_WORKER_CATEGORIES
    ]


def _merge_span(mine: Span, theirs: Span):
    if mine.name != theirs.name or mine.category != theirs.category:
        raise InvariantViolation(
            f"cannot merge span {theirs.category}:{theirs.name!r} into "
            f"{mine.category}:{mine.name!r} — workers produced different "
            "span trees"
        )
    for key, value in theirs.counters.items():
        mine.counters[key] = mine.counters.get(key, 0) + value
    for key, value in theirs.attributes.items():
        mine.attributes.setdefault(key, value)
    was_instant = mine.is_instant and theirs.is_instant
    mine.start_s = min(mine.start_s, theirs.start_s)
    if mine.end_s is not None and theirs.end_s is not None:
        mine.end_s = max(mine.end_s, theirs.end_s)
    if was_instant:
        # the workers' markers happened at skewed wall-clock moments;
        # widening would turn the instant into a fake duration
        mine.end_s = mine.start_s
    _align(mine.children, theirs.children, f"children of span {mine.name!r}")


def attach_tracer(metrics, rank: int = 0) -> Tracer:
    """Attach a fresh tracer to ``metrics`` and return it (idempotent)."""
    if metrics.tracer is None:
        metrics.tracer = Tracer(rank=rank).bind(metrics)
    return metrics.tracer

"""The seam between ``benchmarks/perf`` and the engine.

The harness names engine state by string (``layers.COUNTERS`` is read
with ``getattr(env.metrics, ...)``) and engine options by keyword
(``probes.py``), and no other test or CI step imports it — so a counter
or keyword removed from the engine used to surface only when the merge
pipeline ran the benchmark.  This covers a seam no existing test covers
(it passes at the parent commit); it is the test that would have caught
``MetricsCollector.plan_switches`` going away with the feature behind it.
"""

import inspect

import pytest

from benchmarks.perf import layers
from repro.cluster.context import ClusterContext
from repro.iterations.solution_set import SolutionSetIndex
from repro.runtime import channels, drivers
from repro.runtime.metrics import MetricsCollector

#: callable -> the keywords ``benchmarks/perf/probes.py`` passes it
PROBE_KEYWORDS = [
    (drivers.run_driver, {"batch_size", "columnar", "spill"}),
    (channels.ship, {"batch_size", "columnar"}),
    (ClusterContext.exchange, {"batch_size", "columnar", "key_fields"}),
    (SolutionSetIndex.build,
     {"should_replace", "batch_size", "columnar"}),
    (SolutionSetIndex.apply_delta, {"batch_size", "columnar"}),
]


@pytest.mark.parametrize("attribute", sorted(layers.COUNTERS.values()))
def test_every_harness_counter_exists_on_a_fresh_collector(attribute):
    assert isinstance(getattr(MetricsCollector(), attribute), int)


@pytest.mark.parametrize(
    "function,keywords", PROBE_KEYWORDS,
    ids=[function.__qualname__ for function, _ in PROBE_KEYWORDS],
)
def test_engine_accepts_the_keywords_the_probes_pass(function, keywords):
    assert keywords <= set(inspect.signature(function).parameters)

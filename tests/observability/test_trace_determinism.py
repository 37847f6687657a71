"""Same seed ⇒ the same span tree, on every backend.

The trace-level analogue of the differential audit: the simulator and
the multiprocess SPMD engine must emit structurally identical span
forests — same names, same nesting, same logical counter deltas —
with only timestamps and physical quantities (bytes, cache) free to
differ.
"""

from repro import ExecutionEnvironment
from repro.algorithms import connected_components as cc
from repro.graphs import erdos_renyi
from repro.observability import LOGICAL_SPAN_COUNTERS
from repro.runtime.config import RuntimeConfig


def _traced_run(backend, seed=11):
    graph = erdos_renyi(90, 2.5, seed=seed)
    env = ExecutionEnvironment(
        4, backend=backend,
        config=RuntimeConfig(check_invariants=True, trace=True),
    )
    result = cc.cc_incremental(env, graph, variant="cogroup",
                               mode="superstep")
    env.metrics.verify_invariants()
    structure = env.tracer.structure(LOGICAL_SPAN_COUNTERS)
    labels = [label for label, _tracer in env.trace_timelines]
    return structure, sorted(result.items()), labels


def test_same_seed_same_tree_on_one_backend():
    first, result_a, _ = _traced_run("simulated")
    second, result_b, _ = _traced_run("simulated")
    assert first == second
    assert result_a == result_b


def test_span_tree_identical_across_backends():
    sim_structure, sim_result, sim_labels = _traced_run("simulated")
    mp_structure, mp_result, mp_labels = _traced_run("multiprocess")
    assert sim_result == mp_result
    assert sim_structure == mp_structure
    # the simulator exports one driver timeline; the SPMD engine keeps
    # one timeline per worker rank
    assert sim_labels == ["driver"]
    assert mp_labels == [f"worker-{r}" for r in range(4)]


def test_different_seed_changes_counters_not_wellformedness():
    first, _, _ = _traced_run("simulated", seed=11)
    other, _, _ = _traced_run("simulated", seed=12)
    assert first != other


def _logical(structure):
    """A ``structure()`` encoding without the per-worker storage spans."""
    return tuple(
        (name, category, counters, _logical(children))
        for name, category, counters, children in structure
        if category != "storage"
    )


def test_budgeted_pool_trace_merges_with_per_worker_spill_spans():
    """Workers spill different amounts, so their operator spans carry
    different numbers of storage spans; the aligned merge keeps every
    worker's and the logical tree still equals the simulator's."""
    graph = erdos_renyi(120, 3.0, seed=5)
    runs = {}
    for backend in ("pool", "simulated"):
        config = RuntimeConfig(check_invariants=True, trace=True,
                               memory_budget_bytes=4096)
        with ExecutionEnvironment(2, backend=backend, config=config) as env:
            result = cc.cc_bulk(env, graph)
            env.metrics.verify_invariants()
            writes = [
                span for span in env.tracer.iter_spans()
                if span.category == "storage"
                and span.name.startswith("spill-write:")
            ]
            assert writes
            assert sum(
                span.counters.get("records_spilled", 0) for span in writes
            ) == env.metrics.records_spilled
            runs[backend] = (
                result, _logical(env.tracer.structure(LOGICAL_SPAN_COUNTERS))
            )
    assert runs["pool"] == runs["simulated"]
    assert runs["pool"][0] == cc.cc_ground_truth(graph)

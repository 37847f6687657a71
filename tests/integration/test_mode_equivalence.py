"""Property: monotone delta iterations reach the same fixpoint under
superstep, microstep, and asynchronous execution (Section 5.2's claim
that microsteps converge whenever each individual update is a CPO
successor)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionEnvironment
from repro.graphs import Graph
from repro.runtime.config import RuntimeConfig

NUM_VERTICES = 14

graph_edges = st.lists(
    st.tuples(st.integers(0, NUM_VERTICES - 1),
              st.integers(0, NUM_VERTICES - 1)),
    max_size=30,
)

initial_labels = st.lists(
    st.integers(0, 50), min_size=NUM_VERTICES, max_size=NUM_VERTICES
)


def min_label_fixpoint(env, graph, labels, mode):
    """A CC-style min-label propagation with arbitrary initial labels."""
    vertices = env.from_iterable(
        [(v, labels[v]) for v in range(NUM_VERTICES)]
    )
    edge_tuples = graph.edge_tuples()
    edges = env.from_iterable(edge_tuples)
    workset = env.from_iterable(
        [(dst, labels[src]) for src, dst in edge_tuples]
    )
    it = env.iterate_delta(vertices, workset, 0, max_iterations=500)
    delta = it.workset.join(
        it.solution_set, 0, 0,
        lambda c, s: (s[0], c[1]) if c[1] < s[1] else None,
    ).with_forwarded_fields({0: 0})
    next_ws = delta.join(edges, 0, 0, lambda d, e: (e[1], d[1]))
    result = it.close(
        delta, next_ws,
        should_replace=lambda new, old: new[1] < old[1], mode=mode,
    )
    return dict(result.collect())


def reference_fixpoint(graph, labels):
    """Per component, every vertex ends with the component's min label."""
    from repro.graphs.stats import union_find_components
    components = union_find_components(graph)
    component_min = {}
    for v in range(NUM_VERTICES):
        c = int(components[v])
        component_min[c] = min(component_min.get(c, labels[v]), labels[v])
    return {v: component_min[int(components[v])]
            for v in range(NUM_VERTICES)}


class TestModeEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(graph_edges, initial_labels)
    def test_all_modes_reach_the_reference_fixpoint(self, edges, labels):
        graph = Graph(NUM_VERTICES, edges)
        expected = reference_fixpoint(graph, labels)
        for mode in ("superstep", "microstep", "async"):
            env = ExecutionEnvironment(3)
            got = min_label_fixpoint(env, graph, labels, mode)
            assert got == expected, mode

    @settings(max_examples=15, deadline=None)
    @given(graph_edges, initial_labels,
           st.integers(min_value=1, max_value=6))
    def test_fixpoint_independent_of_parallelism(self, edges, labels,
                                                 parallelism):
        graph = Graph(NUM_VERTICES, edges)
        expected = reference_fixpoint(graph, labels)
        env = ExecutionEnvironment(parallelism)
        assert min_label_fixpoint(env, graph, labels, "async") == expected

    @settings(max_examples=12, deadline=None)
    @given(graph_edges, initial_labels,
           st.integers(min_value=1, max_value=200))
    def test_async_fixpoint_independent_of_interleaving(self, edges, labels,
                                                        batch):
        """Any polling granularity — one element per round to hundreds —
        must reach the same fixpoint: the CPO makes the asynchronous
        schedule irrelevant (Section 2.2)."""
        graph = Graph(NUM_VERTICES, edges)
        expected = reference_fixpoint(graph, labels)
        env = ExecutionEnvironment(
            3, config=RuntimeConfig(async_poll_batch=batch)
        )
        assert min_label_fixpoint(env, graph, labels, "async") == expected

    @settings(max_examples=15, deadline=None)
    @given(graph_edges, initial_labels)
    def test_solution_updates_monotone_under_microsteps(self, edges, labels):
        """Every applied update strictly improves its record — the CPO
        successor condition that justifies asynchronous execution."""
        graph = Graph(NUM_VERTICES, edges)
        env = ExecutionEnvironment(3)
        min_label_fixpoint(env, graph, labels, "microstep")
        # the comparator admits only strict improvements, so the number
        # of updates is bounded by total label mass decrease potential
        max_possible = sum(labels)
        assert env.metrics.solution_updates <= max_possible + NUM_VERTICES

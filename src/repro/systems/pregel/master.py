"""The BSP master: superstep loop, message routing, halting votes.

Vertices are range-partitioned contiguously (like Giraph's default),
messages are routed by target partition through counted channels, and an
optional combiner pre-aggregates messages per target inside the sending
partition before transfer — the paper notes all compared systems
pre-aggregate (Section 6.1).
"""

from __future__ import annotations

from collections import defaultdict

from repro.cluster.context import LOCAL
from repro.runtime.metrics import MetricsCollector
from repro.systems.pregel.vertex import VertexContext


class PregelMaster:
    """Runs a vertex program over a graph until convergence.

    Parameters
    ----------
    graph:
        A :class:`repro.graphs.Graph`; its adjacency provides the
        out-edges of each vertex.
    compute:
        ``compute(ctx, messages)``: the vertex program.  ``messages`` is
        the (possibly combined) list of incoming values; mutate
        ``ctx.state``, call ``ctx.send_message`` / ``ctx.vote_to_halt``.
    initial_state:
        ``initial_state(vertex_id) -> state``.
    combiner:
        Optional ``combiner(a, b) -> merged`` applied to messages with
        the same target before they are shipped and again on arrival.
    run_all_first_superstep:
        Pregel semantics: every vertex is active in superstep 0 even
        without messages.
    """

    def __init__(self, graph, compute, initial_state, combiner=None,
                 parallelism: int = 4, metrics: MetricsCollector = None,
                 run_all_first_superstep: bool = True, aggregators=None,
                 config=None, cluster=None):
        self.graph = graph
        self.compute = compute
        self.initial_state = initial_state
        self.combiner = combiner
        self.parallelism = parallelism
        #: on an SPMD backend each worker runs a replicated master over
        #: its own vertex range, routing messages and taking halting
        #: votes through this cluster context
        self.cluster = cluster or LOCAL
        from repro.runtime.config import RuntimeConfig
        #: the session's runtime switches (invariants, tracing, telemetry)
        self.config = config or RuntimeConfig()
        if metrics is None:
            metrics = MetricsCollector.for_config(
                self.config, rank=self.cluster.rank
            )
        self.metrics = metrics
        self.run_all_first_superstep = run_all_first_superstep
        #: {name: (initial value, merge fn)} — Pregel's global aggregators;
        #: vertices contribute via ``ctx.aggregate`` and read the previous
        #: superstep's global value via ``ctx.get_aggregated``
        self.aggregators = dict(aggregators or {})
        self.aggregated_values: dict[str, object] = {}
        self.supersteps_run = 0
        self.converged = False

    # ------------------------------------------------------------------

    def _partition_of(self, vertex_id: int) -> int:
        # contiguous range partitioning
        per_part = -(-self.graph.num_vertices // self.parallelism)
        return min(vertex_id // per_part, self.parallelism - 1)

    def run(self, max_supersteps: int = 1_000_000) -> dict[int, object]:
        """Execute to convergence; returns {vertex id: final state}.

        The same loop serves both settings: a master computes the vertex
        ranges of the partitions its cluster context owns (all of them
        locally, one per SPMD worker), hands ``(target, value)``
        messages to ``cluster.route``, and agrees on activity/halting
        through barrier votes.  Routed frames arrive in ascending sender
        order, so message fold order — and therefore every state and
        counter — is the same in both settings.
        """
        n = self.graph.num_vertices
        cluster = self.cluster
        my_parts = cluster.owned_partitions(self.parallelism)
        my_vertices = [
            v for v in range(n) if self._partition_of(v) in my_parts
        ]
        states = [self.initial_state(v) for v in range(n)]
        halted = [False] * n
        # inbox per vertex for the *current* superstep
        inbox: dict[int, list] = {}
        self.converged = False

        for superstep in range(max_supersteps):
            if superstep == 0 and self.run_all_first_superstep:
                active = list(my_vertices)
            else:
                active = [
                    v for v in my_vertices
                    if (not halted[v]) or v in inbox
                ]
            if superstep > 0 and \
                    cluster.allreduce_sum(len(active)) == 0:
                self.converged = True
                break

            self.metrics.begin_superstep(superstep + 1)
            outboxes = {p: [] for p in my_parts}
            aggregating: dict[str, list] = {}
            contexts = {
                p: VertexContext(self.graph, outboxes[p], n,
                                 aggregating=aggregating,
                                 aggregated_previous=self.aggregated_values)
                for p in my_parts
            }
            tracer = self.metrics.tracer
            compute_span = None if tracer is None else tracer.begin(
                "pregel:compute", category="operator"
            )
            computed = 0
            for v in active:
                p = self._partition_of(v)
                ctx = contexts[p]
                ctx._reset(v, states[v], superstep)
                messages = inbox.pop(v, [])
                self.compute(ctx, messages)
                states[v] = ctx.state
                halted[v] = ctx._halted
                computed += 1
            self.metrics.add_processed("vertex_compute", computed)
            if compute_span is not None:
                tracer.end(compute_span)

            # combine per target within each sending partition, then route
            route_span = None if tracer is None else tracer.begin(
                "pregel:route", category="channel"
            )
            bytes_before = cluster.bytes_sent
            next_inbox: dict[int, list] = defaultdict(list)
            total_messages = 0
            frames = [[] for _ in range(self.parallelism)]
            for p in my_parts:
                outbox = outboxes[p]
                if self.combiner is not None:
                    combined: dict[int, object] = {}
                    for target, value in outbox:
                        held = combined.get(target)
                        combined[target] = (
                            value if held is None
                            else self.combiner(held, value)
                        )
                    deliveries = combined.items()
                else:
                    deliveries = outbox
                local = remote = 0
                for target, value in deliveries:
                    target_part = self._partition_of(target)
                    frames[target_part].append((target, value))
                    if target_part == p:
                        local += 1
                    else:
                        remote += 1
                self.metrics.add_shipped(local=local, remote=remote)
                total_messages += local + remote
            # ascending sender order = a scan over all partitions, so
            # per-target message order is identical in both settings
            for part in cluster.route(frames):
                for target, value in part:
                    next_inbox[target].append(value)
            self.metrics.add_bytes_shipped(cluster.bytes_sent - bytes_before)
            if route_span is not None:
                tracer.end(route_span)

            # arrival-side combine (receivers see one value per sender
            # partition at most; combine again if a combiner exists)
            if self.combiner is not None:
                for target, values in next_inbox.items():
                    acc = values[0]
                    for value in values[1:]:
                        acc = self.combiner(acc, value)
                    next_inbox[target] = [acc]

            # fold this superstep's aggregator contributions into the
            # global values vertices will read next superstep
            new_aggregated = {}
            if self.aggregators:
                # contiguous range partitioning: concatenating by
                # rank restores global vertex-id contribution order
                merged: dict[str, list] = defaultdict(list)
                for contribs in cluster.allgather(dict(aggregating)):
                    for name, values in contribs.items():
                        merged[name].extend(values)
                for name, (initial, merge) in self.aggregators.items():
                    value = initial
                    for contribution in merged.get(name, ()):
                        value = merge(value, contribution)
                    new_aggregated[name] = value
            self.aggregated_values = new_aggregated

            self.metrics.end_superstep(
                workset_size=total_messages,
                delta_size=computed,
            )
            self.supersteps_run = superstep + 1
            inbox = dict(next_inbox)
            still_busy = len(inbox) + sum(
                1 for v in my_vertices if not halted[v]
            )
            if cluster.allreduce_sum(still_busy) == 0:
                self.converged = True
                break

        # every context rebuilds the full final state vector
        for pairs in cluster.allgather(
            [(v, states[v]) for v in my_vertices]
        ):
            for v, state in pairs:
                states[v] = state
        self.metrics.verify_invariants()
        return {v: states[v] for v in range(n)}

"""Differential audit: cross-engine result equality + counter invariants.

The benchmark figures compare *engines* on *logical counters*; both
halves deserve machine checking.  This mode runs Connected Components
and PageRank on every engine over seeded random graphs with invariant
checking force-enabled, then asserts:

* **result equality** — every CC engine matches union-find ground truth
  exactly; every PageRank engine matches the numpy power-iteration
  reference within float tolerance;
* **counter-invariant compliance** — each run completed with the
  conservation-law audit active (every ship, driver call, barrier, and
  delta application checked), and the per-superstep counter attribution
  sums to the global totals;
* **cross-engine accounting sanity** — for every run,
  ``local + remote`` shipped totals and superstep balance held (these
  raise during the run if violated);
* **cross-backend equality** — with ``backends=("simulated",
  "pool")`` every engine additionally runs on real worker
  processes, and both the *results* and the *logical counters*
  (records processed/shipped, solution accesses/updates, the whole
  per-superstep iteration log) must be identical to the simulator's,
  bit for bit.  Physical counters that legitimately differ (bytes on
  the wire, cache builds replicated per worker, wall-clock) are
  excluded from the comparison.

Run it via ``python -m repro.bench audit``, ``make verify-invariants``,
or the ``verify_invariants``-marked pytest tests.  It is the
fixture that makes counter bugfixes verifiable: re-introducing a known
accounting bug (the ``apply_record`` probe undercount, the hash
framer's locality mislabel) fails this audit instead of silently
skewing Figures 2/7/9.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import ExecutionEnvironment
from repro.algorithms import connected_components as cc
from repro.algorithms import pagerank as pr
from repro.bench.reporting import render_table
from repro.cluster import resolve_backend
from repro.common.errors import InvariantViolation
from repro.graphs import erdos_renyi
from repro.runtime.config import RuntimeConfig
from repro.runtime.metrics import MetricsCollector
from repro.systems.sparklike import SparkLikeContext

#: per-engine PageRank agreement tolerance against the numpy reference
#: (engines sum float contributions in different orders)
PAGERANK_TOLERANCE = 1e-9

CHECKED = RuntimeConfig(check_invariants=True)


@dataclass
class EngineRun:
    """One audited (workload, engine, graph, backend) execution."""

    workload: str
    engine: str
    graph: str
    ok: bool
    detail: str
    backend: str = "simulated"
    ship_checks: int = 0
    messages: int = 0
    supersteps: int = 0


@dataclass
class AuditResult:
    runs: list[EngineRun] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def raise_on_failure(self):
        if self.failures:
            raise InvariantViolation(
                "differential audit failed:\n  " + "\n  ".join(self.failures)
            )
        return self

    def report(self) -> str:
        backends = sorted({run.backend for run in self.runs})
        rows = [
            [run.workload, run.engine, run.graph, run.backend,
             "ok" if run.ok else "FAIL",
             run.ship_checks, run.messages, run.supersteps]
            for run in self.runs
        ]
        table = render_table(
            "Differential audit — cross-engine equality and counter "
            "invariants (checker active on every run)",
            ["workload", "engine", "graph", "backend", "result",
             "ship audits", "messages", "supersteps"],
            rows,
        )
        if self.ok:
            verdict = (
                f"All {len(self.runs)} runs: results agree across engines "
                "and every counter invariant held."
            )
            if len(backends) > 1:
                verdict += (
                    f" Backends ({', '.join(backends)}) produced identical "
                    "results and identical logical counters."
                )
        else:
            verdict = "FAILURES:\n" + "\n".join(
                f"  {f}" for f in self.failures
            )
        return table + "\n\n" + verdict


def _checked_env(parallelism: int, backend) -> ExecutionEnvironment:
    return ExecutionEnvironment(parallelism, config=CHECKED, backend=backend)


def _cc_engines(parallelism, backend, max_iterations=10_000):
    """(engine name, runner(graph) -> (result, metrics)) for every engine."""
    def stratosphere(variant, mode):
        def run(graph):
            env = _checked_env(parallelism, backend)
            result = cc.cc_incremental(
                env, graph, variant=variant, mode=mode,
                max_iterations=max_iterations,
            )
            return result, env.metrics
        return run

    def bulk(graph):
        env = _checked_env(parallelism, backend)
        return cc.cc_bulk(env, graph, max_iterations), env.metrics

    def sparklike(graph):
        def program(cluster):
            ctx = SparkLikeContext(parallelism, config=CHECKED,
                                   cluster=cluster)
            result = cc.cc_sparklike(ctx, graph, max_iterations)
            ctx.metrics.verify_invariants()
            return result, ctx.metrics
        return backend.run_program(program, parallelism)

    def sparklike_sim(graph):
        def program(cluster):
            ctx = SparkLikeContext(parallelism, config=CHECKED,
                                   cluster=cluster)
            result = cc.cc_sparklike_sim_incremental(
                ctx, graph, max_iterations
            )
            ctx.metrics.verify_invariants()
            return result, ctx.metrics
        return backend.run_program(program, parallelism)

    def pregel(graph):
        def program(cluster):
            metrics = MetricsCollector.for_config(
                CHECKED, rank=cluster.rank
            )
            result = cc.cc_pregel(graph, parallelism=parallelism,
                                  metrics=metrics, cluster=cluster)
            return result, metrics
        return backend.run_program(program, parallelism)

    return [
        ("Stratosphere Full", bulk),
        ("Stratosphere Incr.", stratosphere("cogroup", "superstep")),
        ("Stratosphere Micro", stratosphere("match", "microstep")),
        ("Stratosphere Async", stratosphere("match", "async")),
        ("Spark", sparklike),
        ("Spark Sim. Incr.", sparklike_sim),
        ("Giraph", pregel),
    ]


def _pagerank_engines(parallelism, iterations, backend):
    def bulk(plan):
        def run(graph):
            env = _checked_env(parallelism, backend)
            result = pr.pagerank_bulk(env, graph, iterations, plan=plan)
            return result, env.metrics
        return run

    def sparklike(graph):
        def program(cluster):
            ctx = SparkLikeContext(parallelism, config=CHECKED,
                                   cluster=cluster)
            result = pr.pagerank_sparklike(ctx, graph, iterations)
            ctx.metrics.verify_invariants()
            return result, ctx.metrics
        return backend.run_program(program, parallelism)

    def pregel(graph):
        def program(cluster):
            metrics = MetricsCollector.for_config(
                CHECKED, rank=cluster.rank
            )
            result = pr.pagerank_pregel(graph, iterations,
                                        parallelism=parallelism,
                                        metrics=metrics, cluster=cluster)
            return result, metrics
        return backend.run_program(program, parallelism)

    return [
        ("Stratosphere Part.", bulk("partition")),
        ("Stratosphere BC", bulk("broadcast")),
        ("Spark", sparklike),
        ("Giraph", pregel),
    ]


def _cross_backend_check(backend_name, result, metrics, key, baselines):
    """Compare this run against the first backend's run of the same key.

    Returns ``None`` when consistent (or when this backend *is* the
    baseline), else a failure detail string.
    """
    comparable = metrics.logical()
    baseline = baselines.get(key)
    if baseline is None:
        baselines[key] = (backend_name, result, comparable)
        return None
    base_backend, base_result, base_counters = baseline
    if result != base_result:
        return (
            f"results differ between the {backend_name} and "
            f"{base_backend} backends"
        )
    for name, value in comparable.items():
        if value != base_counters[name]:
            return (
                f"logical counter {name!r} differs between the "
                f"{backend_name} ({value!r}) and {base_backend} "
                f"({base_counters[name]!r}) backends"
            )
    return None


def _audit_run(result_obj, workload, engine, graph_name, backend_name,
               runner, graph, compare, baselines):
    """Execute one engine under audit; record outcome and counters."""
    try:
        result, metrics = runner(graph)
        detail = compare(result)
        ok = detail is None
    except InvariantViolation as violation:
        ok, detail, metrics = False, f"invariant violated: {violation}", None
    if ok and metrics is not None:
        detail = _cross_backend_check(
            backend_name, result, metrics, (workload, engine, graph_name),
            baselines,
        )
        ok = detail is None
    checker = metrics.invariants if metrics is not None else None
    run = EngineRun(
        workload=workload,
        engine=engine,
        graph=graph_name,
        backend=backend_name,
        ok=ok,
        detail=detail or "ok",
        ship_checks=checker.ship_checks if checker is not None else 0,
        messages=metrics.records_shipped_remote if metrics else 0,
        supersteps=metrics.supersteps if metrics else 0,
    )
    result_obj.runs.append(run)
    if not ok:
        result_obj.failures.append(
            f"{workload}/{engine} on {graph_name} [{backend_name}]: {detail}"
        )
    if ok and checker is not None and checker.ship_checks == 0 \
            and engine != "Giraph":
        # Giraph routes messages itself (no shipping channel); every other
        # engine must have exercised the channel audit at least once
        result_obj.failures.append(
            f"{workload}/{engine} on {graph_name} [{backend_name}]: "
            "checker attached but no ship was audited — the audit layer "
            "is not wired in"
        )


def run(seeds=(7, 23), num_vertices: int = 160, avg_degree: float = 2.5,
        parallelism: int = 4, pagerank_iterations: int = 8,
        backends=("simulated",)) -> AuditResult:
    """Run the full differential audit; returns an :class:`AuditResult`.

    ``backends`` names the execution backends to audit (``"simulated"``,
    ``"pool"``, or instances).  With more than one, every
    (workload, engine, graph) cell runs once per backend and the later
    backends must reproduce the first backend's results and logical
    counters exactly.
    """
    resolved = []
    for spec in backends:
        backend = resolve_backend(spec)
        resolved.append((backend.name, backend))

    result = AuditResult()
    baselines: dict[tuple, tuple] = {}
    for seed in seeds:
        graph = erdos_renyi(num_vertices, avg_degree, seed=seed)
        graph_name = f"er({num_vertices},{avg_degree},seed={seed})"

        truth = cc.cc_ground_truth(graph)

        def compare_cc(engine_result):
            if engine_result == truth:
                return None
            wrong = sum(
                1 for v, label in truth.items()
                if engine_result.get(v) != label
            )
            return f"CC labels disagree with union-find on {wrong} vertices"

        reference = pr.pagerank_reference(graph, pagerank_iterations)

        def compare_pr(engine_result):
            worst = max(
                abs(engine_result.get(v, 0.0) - rank)
                for v, rank in reference.items()
            )
            if worst <= PAGERANK_TOLERANCE:
                return None
            return (
                f"PageRank deviates from the reference by {worst:.3e} "
                f"(tolerance {PAGERANK_TOLERANCE:.0e})"
            )

        for backend_name, backend in resolved:
            for engine, runner in _cc_engines(parallelism, backend):
                _audit_run(result, "CC", engine, graph_name, backend_name,
                           runner, graph, compare_cc, baselines)

            for engine, runner in _pagerank_engines(parallelism,
                                                    pagerank_iterations,
                                                    backend):
                _audit_run(result, "PageRank", engine, graph_name,
                           backend_name, runner, graph, compare_pr,
                           baselines)
    return result

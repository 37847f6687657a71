"""Iteration constructs: fixpoint templates, solution sets, microstep analysis.

The logical iteration *nodes* live in :mod:`repro.dataflow.graph`; this
package holds the machinery behind them:

* :mod:`repro.iterations.fixpoint` — the three iteration templates of
  Table 1 (FIXPOINT, INCR, MICRO) as executable, engine-independent
  reference implementations, plus CPO-based convergence checking.
* :mod:`repro.iterations.solution_set` — the partitioned, key-indexed
  solution set with the ``∪̇`` delta-union of Section 5.1.
* :mod:`repro.iterations.microstep` — static eligibility analysis for
  microstep execution (Section 5.2).
* :mod:`repro.iterations.supersteps` — the superstep protocol (barrier vote,
  per-superstep log, step function, restore-and-replay) that every
  superstep-structured iteration runs through.
* :mod:`repro.iterations.microstep_runtime` — per-element execution of
  delta iterations, drained a run at a time: run-pipeline compilation,
  the queue drain, and the one round loop behind ``microstep`` and
  ``async`` (whole drains vs. bounded-drain polls).

The last two are the runtime half, imported by the executor; this
package init deliberately does not import them (see the import-cycle
note in :mod:`repro.iterations.supersteps`).
"""

from repro.iterations.fixpoint import (
    FixpointResult,
    fixpoint_iterate,
    incremental_iterate,
    microstep_iterate,
)
from repro.iterations.microstep import MicrostepReport, analyze_microstep
from repro.iterations.solution_set import SolutionSetIndex
from repro.iterations.vertex_centric import run_vertex_centric

__all__ = [
    "FixpointResult",
    "MicrostepReport",
    "SolutionSetIndex",
    "analyze_microstep",
    "fixpoint_iterate",
    "incremental_iterate",
    "microstep_iterate",
    "run_vertex_centric",
]

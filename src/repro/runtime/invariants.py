"""Debug-mode invariant checking for the runtime's logical counters.

The paper's comparisons (Figures 2, 7-12) are carried in this
reproduction by *deterministic logical counters* — records shipped
locally/remotely, solution-set accesses and updates, workset sizes.  An
accounting bug silently corrupts every figure, so this module turns the
counters from trusted-by-convention into machine-checked: an
:class:`InvariantChecker` attached to a
:class:`~repro.runtime.metrics.MetricsCollector` (via
``RuntimeConfig(check_invariants=True)``; on by default under pytest)
audits every channel ship, driver call, superstep barrier, and
solution-set delta application against its conservation law, raising
:class:`~repro.common.errors.InvariantViolation` at the first breach.

Enforced laws:

* **Channel conservation** — records out of a ship equal records in
  (times ``parallelism`` for broadcast); ``local + remote`` shipped
  equals the input size; the local/remote split matches an independent
  per-record recomputation; hash-shipped records land on
  ``partition_index(key)``; gather leaves partitions 1.. empty; forward
  keeps every partition's size, and a forward ship that declares the
  partitioning it relies on (the planner forwarded because its producer
  is hash-partitioned on those fields) finds every record on its key's
  partition.
* **Partition-count contract** — datasets at rest always hold exactly
  ``parallelism`` partitions; a ship whose input disagrees is rejected
  (this is the contract that makes ``target == source_index`` a valid
  locality test in the hash channel).
* **Driver conservation** — Map emits exactly one record per input,
  Filter never grows its input, Union emits the sum of its inputs,
  combinable Reduce never emits more records than it consumed.
* **Superstep balance** — ``begin_superstep``/``end_superstep`` calls
  alternate strictly; an unbalanced call raises instead of silently
  corrupting the per-iteration log.
* **Solution-set accounting** — every point lookup probes the partition
  that owns the key; a delta application changes ``|S|`` by exactly
  accepted-minus-replaced records and counts one solution access per
  probed delta record.
* **Spill conservation** — every out-of-core partition or sort pass
  ends with ``resident + spilled == routed``: a record crossing the
  memory budget lands in memory or on disk exactly once
  (``check_spill``).
* **Attribution totals** — the per-superstep counters in
  ``iteration_log`` plus the out-of-superstep remainder sum exactly to
  the global collector totals (``verify_totals``).
* **Trace reconciliation** — when a tracer is attached, span trees are
  well-nested (no span left open at a quiescent point) and the counter
  deltas sampled inside each superstep span equal the counters the
  barrier logged into ``iteration_log`` (``check_trace``).

The checker recomputes expectations independently of the code under
audit (e.g. the hash channel's locality split is re-derived per record
from the key extractor), so re-introducing a known accounting bug — the
``apply_record`` probe undercount, the hash framer's locality mislabel —
trips a check rather than skewing a benchmark.
"""

from __future__ import annotations

from repro.common.errors import InvariantViolation
from repro.common.hashing import partition_index
from repro.common.keys import KeyExtractor
from repro.dataflow.contracts import Contract
from repro.runtime.metrics import BARRIER_SIZES, COUNTERS
from repro.runtime.plan import ShipKind

#: what the trace law reconciles between a superstep span and its
#: logged stats
_TRACE_RECONCILED = COUNTERS + BARRIER_SIZES

#: how many audits of each kind ran (lets tests assert coverage)
_AUDIT_COUNTS = ("ship_checks", "driver_checks", "delta_checks",
                 "trace_checks", "batch_checks", "spill_checks")


class InvariantChecker:
    """Audit layer enforcing the counter conservation laws.

    Attach one checker per :class:`MetricsCollector` (the collector calls
    back into it from every counter hook); the runtime layers then invoke
    the ``check_*`` methods with enough context to recompute each law
    independently.  All methods raise
    :class:`~repro.common.errors.InvariantViolation` on the first breach.
    """

    def __init__(self):
        self.reset()
        for name in _AUDIT_COUNTS:
            setattr(self, name, 0)

    def reset(self):
        #: counter amounts attributed to an open superstep vs outside one,
        #: mirrored independently of the collector's own bookkeeping
        self._inside = dict.fromkeys(COUNTERS, 0)
        self._outside = dict.fromkeys(COUNTERS, 0)
        self._superstep_open = False

    @staticmethod
    def _fail(message: str):
        raise InvariantViolation(message)

    # ------------------------------------------------------------------
    # collector callbacks (shadow attribution + superstep balance)

    def on_counter(self, name: str, amount: int, in_superstep: bool):
        """Mirror one counter increment for the attribution audit."""
        if amount < 0:
            self._fail(f"counter {name} incremented by negative {amount}")
        if in_superstep:
            self._inside[name] += amount
        else:
            self._outside[name] += amount

    def on_begin_superstep(self, superstep: int):
        if self._superstep_open:
            self._fail(
                f"begin_superstep({superstep}) while a superstep is still "
                "open — barriers must alternate begin/end"
            )
        self._superstep_open = True

    def on_end_superstep(self):
        if not self._superstep_open:
            self._fail("end_superstep without a matching begin_superstep")
        self._superstep_open = False

    # ------------------------------------------------------------------
    # channel audit

    def check_ship(self, strategy, in_parts, out_parts, parallelism,
                   local, remote):
        """Audit one completed ship against its conservation law.

        ``local``/``remote`` are the counts the channel *claimed* (and
        added to the collector); the expected split is recomputed here
        per record, independently of the channel's own logic.
        """
        self.ship_checks += 1
        kind = strategy.kind
        n_in = sum(len(p) for p in in_parts)
        n_out = sum(len(p) for p in out_parts)
        if len(in_parts) != parallelism:
            self._fail(
                f"{kind.value} ship consumed {len(in_parts)} partitions on a "
                f"{parallelism}-way cluster — datasets at rest must hold "
                "exactly one partition per worker"
            )
        if len(out_parts) != parallelism:
            self._fail(
                f"{kind.value} ship produced {len(out_parts)} partitions, "
                f"expected {parallelism}"
            )

        if kind is ShipKind.FORWARD:
            expected_out = n_in
            expected_local, expected_remote = n_in, 0
            for p, (src, dst) in enumerate(zip(in_parts, out_parts)):
                if len(src) != len(dst):
                    self._fail(
                        f"forward ship changed partition {p} from "
                        f"{len(src)} to {len(dst)} records"
                    )
            if strategy.key_fields:
                # the plan forwarded on a declared partitioning
                self._check_placement(strategy, out_parts, parallelism)
        elif kind is ShipKind.PARTITION_HASH:
            expected_out = n_in
            extract = KeyExtractor(strategy.key_fields)
            expected_local = 0
            for p, part in enumerate(in_parts):
                for record in part:
                    if partition_index(extract(record), parallelism) == p:
                        expected_local += 1
            expected_remote = n_in - expected_local
            self._check_placement(strategy, out_parts, parallelism)
        elif kind is ShipKind.BROADCAST:
            expected_out = n_in * parallelism
            expected_local = n_in
            expected_remote = n_in * (parallelism - 1)
            for p, part in enumerate(out_parts):
                if len(part) != n_in:
                    self._fail(
                        f"broadcast gave partition {p} {len(part)} records, "
                        f"expected all {n_in}"
                    )
        elif kind is ShipKind.GATHER:
            expected_out = n_in
            expected_local = len(in_parts[0]) if in_parts else 0
            expected_remote = n_in - expected_local
            for p, part in enumerate(out_parts[1:], start=1):
                if part:
                    self._fail(
                        f"gather left {len(part)} records on partition {p}"
                    )
        else:  # pragma: no cover - new kinds must add a law here
            self._fail(f"no conservation law registered for ship kind {kind}")

        if n_out != expected_out:
            self._fail(
                f"{kind.value} ship consumed {n_in} records but emitted "
                f"{n_out} (expected {expected_out}) — records were "
                "lost or fabricated in transit"
            )
        if local + remote != expected_local + expected_remote:
            self._fail(
                f"{kind.value} ship counted local={local} + remote={remote} "
                f"= {local + remote} shipped records for an input of "
                f"{expected_local + expected_remote}"
            )
        if local != expected_local or remote != expected_remote:
            self._fail(
                f"{kind.value} ship labelled local={local}, remote={remote}; "
                f"per-record recomputation gives local={expected_local}, "
                f"remote={expected_remote} — locality accounting is wrong"
            )

    def _check_placement(self, strategy, out_parts, parallelism):
        """Every record sits on the partition its key owns."""
        extract = KeyExtractor(strategy.key_fields)
        for p, part in enumerate(out_parts):
            for record in part:
                owner = partition_index(extract(record), parallelism)
                if owner != p:
                    self._fail(
                        f"{strategy.kind.value} ship left record "
                        f"{record!r} on partition {p}, but its key owns "
                        f"partition {owner}"
                    )

    def check_exchange(self, strategy, in_parts, frames, out_parts,
                       parallelism, owned, local, remote):
        """Audit one ship from the view of a context that owns only the
        ``owned`` partitions (an SPMD worker owns one).

        The global conservation law of :meth:`check_ship` needs every
        partition's contents, which such a context does not have; this
        is the projection of the same law onto what it does see,
        checked *without* an extra collective: the outgoing frames must
        partition the owned input (placement recomputed per record), the
        claimed local/remote split must match an independent
        recomputation, and every record routed into an owned partition
        must belong there.
        """
        self.ship_checks += 1
        kind = strategy.kind
        n_in = sum(len(in_parts[p]) for p in owned)
        n_framed = sum(len(frame) for frame in frames)
        if kind is ShipKind.PARTITION_HASH:
            extract = KeyExtractor(strategy.key_fields)
            expected_local = sum(
                1 for p in owned for record in in_parts[p]
                if partition_index(extract(record), parallelism) == p
            )
            expected_remote = n_in - expected_local
            if n_framed != n_in:
                self._fail(
                    f"hash exchange framed {n_framed} records for an "
                    f"input of {n_in} — records were lost or fabricated "
                    "before transport"
                )
            # what this context framed, then what its peers routed to it
            self._check_placement(strategy, frames, parallelism)
            self._check_placement(strategy, [
                out_parts[p] if p in owned else ()
                for p in range(parallelism)
            ], parallelism)
        elif kind is ShipKind.BROADCAST:
            expected_local = n_in
            expected_remote = n_in * (parallelism - 1)
            for target, frame in enumerate(frames):
                if len(frame) != n_in:
                    self._fail(
                        f"broadcast exchange framed {len(frame)} records "
                        f"for partition {target}, expected all {n_in}"
                    )
        elif kind is ShipKind.GATHER:
            expected_local = len(in_parts[0]) if 0 in owned else 0
            expected_remote = n_in - expected_local
            if len(frames[0]) != n_in or n_framed != n_in:
                self._fail(
                    f"gather exchange framed {n_framed} records "
                    f"({len(frames[0])} for partition 0) for an input of "
                    f"{n_in}"
                )
            for p in owned:
                if p != 0 and out_parts[p]:
                    self._fail(
                        f"partition {p} received {len(out_parts[p])} "
                        "gathered records — gather must land everything "
                        "on partition 0"
                    )
        else:  # pragma: no cover - new kinds must add a law here
            self._fail(f"no exchange law registered for ship kind {kind}")
        if local != expected_local or remote != expected_remote:
            self._fail(
                f"{kind.value} exchange labelled local={local}, "
                f"remote={remote}; per-record recomputation gives "
                f"local={expected_local}, remote={expected_remote} — "
                "locality accounting is wrong"
            )

    # ------------------------------------------------------------------
    # batch audit

    def check_batch(self, batch):
        """A batch's cached key/hash vectors match per-record recomputation.

        The batched data plane routes through
        :class:`~repro.common.batch.RecordBatch` vectors computed in one
        pass; this law re-derives both vectors record by record with the
        plain :class:`KeyExtractor`/:func:`stable_hash` machinery —
        independent of the batch's own caching — so a stale or misaligned
        vector (e.g. a mutated batch) trips a check instead of silently
        misrouting records.
        """
        from repro.common.hashing import stable_hash

        self.batch_checks += 1
        if batch.key_fields is None:
            self._fail("audited batch carries no key fields")
        extract = KeyExtractor(batch.key_fields)
        expected_keys = [extract(record) for record in batch.records]
        if batch.keys != expected_keys:
            self._fail(
                f"batch key vector diverges from per-record extraction "
                f"on fields {batch.key_fields} — the cached vector is "
                "stale or misaligned"
            )
        expected_hashes = [stable_hash(k) for k in expected_keys]
        if batch.hashes != expected_hashes:
            self._fail(
                "batch hash vector diverges from per-record stable_hash "
                "recomputation — the cached vector is stale or misaligned"
            )

    # ------------------------------------------------------------------
    # driver audit

    def check_driver(self, name, contract, input_sizes, output_size):
        """Record-count bounds for per-partition driver calls."""
        self.driver_checks += 1
        n_in = sum(input_sizes)
        if contract is Contract.MAP and output_size != n_in:
            self._fail(
                f"Map driver {name} emitted {output_size} records for "
                f"{n_in} inputs — Map is one-in/one-out"
            )
        elif contract is Contract.FILTER and output_size > n_in:
            self._fail(
                f"Filter driver {name} emitted {output_size} records for "
                f"{n_in} inputs — Filter cannot grow its input"
            )
        elif contract is Contract.UNION and output_size != n_in:
            self._fail(
                f"Union driver {name} emitted {output_size} records for "
                f"{n_in} inputs — Union is bag union"
            )
        elif contract is Contract.REDUCE and output_size > n_in:
            self._fail(
                f"Reduce driver {name} emitted {output_size} records for "
                f"{n_in} inputs — combinable Reduce emits at most one "
                "record per distinct key"
            )

    # ------------------------------------------------------------------
    # spill audit

    def check_spill(self, label, routed, resident, spilled):
        """One partition/sort pass conserved its records across the dam.

        Every record an out-of-core pass routed must end the pass either
        resident in memory or written to a spill file — exactly once:
        ``resident + spilled == routed``.  A record dropped on the way
        to disk (or double-written) breaks the balance here before it
        can surface as a wrong result.
        """
        self.spill_checks += 1
        if routed < 0 or resident < 0 or spilled < 0:
            self._fail(
                f"{label}: negative spill accounting (routed={routed}, "
                f"resident={resident}, spilled={spilled})"
            )
        if resident + spilled != routed:
            self._fail(
                f"{label}: spill pass routed {routed} records but ended "
                f"with resident({resident}) + spilled({spilled}) = "
                f"{resident + spilled} — records were lost or duplicated "
                "crossing the memory budget"
            )

    # ------------------------------------------------------------------
    # solution-set audit

    def check_solution_lookup(self, partition, key_value, parallelism):
        """A point probe must hit the partition that owns the key."""
        owner = partition_index(key_value, parallelism)
        if owner != partition:
            self._fail(
                f"solution-set probe for key {key_value!r} hit partition "
                f"{partition}, but the key owns partition {owner} — "
                "the probe stream is misrouted"
            )

    def check_delta_application(self, label, size_before, size_after,
                                accepted, replaced, probed=None,
                                accesses_counted=None):
        """Audit one ∪̇ batch: |S| moves by accepted - replaced.

        When ``probed``/``accesses_counted`` are supplied, also verify
        that every probed delta record was counted as a solution access
        (the Figure 2/9 'vertices inspected' series).
        """
        self.delta_checks += 1
        if size_after - size_before != accepted - replaced:
            self._fail(
                f"{label}: solution set grew by {size_after - size_before} "
                f"records, but accepted({accepted}) - replaced({replaced}) "
                f"= {accepted - replaced}"
            )
        if replaced > accepted:
            self._fail(
                f"{label}: replaced {replaced} records but only accepted "
                f"{accepted}"
            )
        if probed is not None and accesses_counted is not None:
            if accesses_counted != probed:
                self._fail(
                    f"{label}: probed {probed} delta records but counted "
                    f"{accesses_counted} solution accesses — the index "
                    "probe accounting is wrong"
                )

    # ------------------------------------------------------------------
    # attribution totals

    def verify_totals(self, metrics):
        """Per-superstep counters + out-of-superstep remainder == totals.

        Call at a quiescent point (no superstep open).  Catches counters
        mutated without going through the collector's hooks, supersteps
        dropped from the log, and double-attributed increments.
        """
        if metrics._open_superstep is not None:
            self._fail(
                "verify_totals called while a superstep is open — totals "
                "can only be audited at a barrier"
            )
        log = metrics.iteration_log
        for name in COUNTERS:
            logged = sum(getattr(s, name) for s in log)
            inside, outside = self._inside[name], self._outside[name]
            total = metrics.total(name)
            if logged != inside:
                self._fail(
                    f"iteration_log sums {logged} {name} inside "
                    f"supersteps, but {inside} were attributed "
                    "— a superstep was dropped or double-logged"
                )
            if logged + outside != total:
                self._fail(
                    f"global {name} total is {total}, but "
                    f"per-superstep sum {logged} + out-of-superstep "
                    f"{outside} = {logged + outside} — a counter was "
                    "mutated outside the collector hooks"
                )

    # ------------------------------------------------------------------
    # trace audit

    def check_trace(self, tracer, metrics):
        """Span trees are well-nested and reconcile with the barrier log.

        Two laws, checked at a quiescent point:

        * the trace forest is closed (no span left open — a crash path
          that skipped an ``end`` would leave a dangling span);
        * the superstep-category spans, in depth-first preorder, pair
          one-to-one with ``metrics.iteration_log``, and every counter
          delta sampled inside a superstep span equals the counter the
          barrier logged for that superstep.  Since spans sample the
          collector totals while ``IterationStats`` accumulates through
          the hooks, any counter mutated without its hook (or any span
          crossing a barrier) breaks the reconciliation.
        """
        self.trace_checks += 1
        if tracer.open_depth:
            self._fail(
                f"{tracer.open_depth} span(s) still open at a quiescent "
                "point — every begin must have a matching end"
            )
        spans = [s for s in tracer.iter_spans()
                 if s.category == "superstep"]
        log = metrics.iteration_log
        if len(spans) != len(log):
            self._fail(
                f"trace holds {len(spans)} superstep spans but "
                f"iteration_log holds {len(log)} entries — a barrier was "
                "traced without being logged (or vice versa)"
            )
        for span, stats in zip(spans, log):
            if span.attributes.get("superstep") != stats.superstep:
                self._fail(
                    f"superstep span {span.name!r} (superstep "
                    f"{span.attributes.get('superstep')}) paired with "
                    f"logged superstep {stats.superstep} — trace and log "
                    "disagree on barrier order"
                )
            for counter in _TRACE_RECONCILED:
                sampled = span.counters.get(counter, 0)
                logged = getattr(stats, counter)
                if sampled != logged:
                    self._fail(
                        f"superstep {stats.superstep}: span sampled "
                        f"{counter}={sampled} but the barrier logged "
                        f"{logged} — a counter bypassed its collector "
                        "hook inside the superstep"
                    )

    def absorb(self, other: "InvariantChecker"):
        """Fold another checker's shadows into this one.

        Used when merging per-worker collectors: the attribution shadows
        and audit-coverage counts must sum so that ``verify_totals`` on
        the merged collector still balances.
        """
        if self._superstep_open or other._superstep_open:
            self._fail("cannot absorb a checker while a superstep is open")
        for name in COUNTERS:
            self._inside[name] += other._inside[name]
            self._outside[name] += other._outside[name]
        for name in _AUDIT_COUNTS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self


def attach_checker(metrics) -> InvariantChecker:
    """Attach a fresh checker to ``metrics`` and return it (idempotent)."""
    if metrics.invariants is None:
        metrics.invariants = InvariantChecker()
    return metrics.invariants

"""The invariant checker catches the bugs it was built to catch.

The acceptance tests here re-introduce the two historical accounting
bugs as deliberate stubs — a hash channel that mislabels locality and a
solution-set that skips probe accounting — and assert the checker
rejects both.  The remaining tests pin each conservation law
individually.
"""

import pytest

from repro.common.errors import InvariantViolation
from repro.common.hashing import partition_index
from repro.dataflow.contracts import Contract
from repro.iterations.solution_set import SolutionSetIndex
from repro.runtime import channels
from repro.runtime.invariants import InvariantChecker, attach_checker
from repro.runtime.metrics import MetricsCollector
from repro.runtime.plan import BROADCAST, FORWARD, GATHER, partition_on

RECORDS = [(i, i * 10) for i in range(20)]
HASH = partition_on((0,))


def checked_metrics():
    metrics = MetricsCollector()
    attach_checker(metrics)
    return metrics


def spread(records, parallelism=4):
    return channels.round_robin(records, parallelism)


class TestAttach:
    def test_attach_is_idempotent(self):
        metrics = MetricsCollector()
        first = attach_checker(metrics)
        assert attach_checker(metrics) is first

    def test_reset_clears_checker_state(self):
        metrics = checked_metrics()
        metrics.add_shipped(local=3, remote=4)
        metrics.reset()
        metrics.verify_invariants()  # shadow counters were reset too


class TestShipAudit:
    def test_correct_ships_pass(self):
        metrics = checked_metrics()
        for strategy in (FORWARD, HASH, BROADCAST, GATHER):
            channels.ship(spread(RECORDS), strategy, 4, metrics)
        assert metrics.invariants.ship_checks == 4

    def test_rejects_miscounting_stub_channel(self, monkeypatch):
        """A hash channel that mislabels locality is caught in-line.

        The stub routes records correctly but reproduces the historical
        hash-channel bug: it decides local-vs-remote from the wrong
        index, so the local/remote split it reports disagrees with the
        checker's per-record recomputation.
        """
        def buggy_hash(part, source, frames, batch_size, key_fields,
                       checker=None):
            here = 0
            for record in part:
                target = partition_index(record[0], len(frames))
                frames[target].append(record)
                if target == 0:  # wrong locality test
                    here += 1
            return here, len(part) - here, 1

        monkeypatch.setattr(channels, "_frame_hash", buggy_hash)
        metrics = checked_metrics()
        with pytest.raises(InvariantViolation, match="locality"):
            channels.ship(spread(RECORDS), HASH, 4, metrics)

    def test_rejects_record_loss(self):
        checker = InvariantChecker()
        in_parts = spread(RECORDS)
        out, local, remote, _ = channels.frame(in_parts, range(4), HASH)
        out[0] = out[0][:-1]  # drop a record in transit
        with pytest.raises(InvariantViolation, match="lost or fabricated"):
            checker.check_ship(HASH, in_parts, out, 4, local - 1, remote)

    def test_rejects_misplaced_hash_record(self):
        checker = InvariantChecker()
        in_parts = spread(RECORDS)
        out, local, remote, _ = channels.frame(in_parts, range(4), HASH)
        moved = out[0].pop()
        wrong = (partition_index(moved[0], 4) + 1) % 4
        out[wrong].append(moved)
        with pytest.raises(InvariantViolation, match="owns partition"):
            checker.check_ship(HASH, in_parts, out, 4, local, remote)

    def test_rejects_forward_partition_resize(self):
        checker = InvariantChecker()
        in_parts = spread(RECORDS)
        out = [list(p) for p in in_parts]
        out[1].append(out[2].pop())
        with pytest.raises(InvariantViolation, match="forward"):
            checker.check_ship(FORWARD, in_parts, out, 4,
                               len(RECORDS), 0)

    def test_rejects_incomplete_broadcast(self):
        checker = InvariantChecker()
        in_parts = spread(RECORDS)
        out = [list(RECORDS) for _ in range(4)]
        out[2] = out[2][:-3]
        with pytest.raises(InvariantViolation, match="broadcast"):
            checker.check_ship(BROADCAST, in_parts, out, 4,
                               len(RECORDS), len(RECORDS) * 3)

    def test_rejects_gather_leftovers(self):
        checker = InvariantChecker()
        in_parts = spread(RECORDS)
        out = [channels.merge(in_parts[:-1]), [], [], list(in_parts[-1])]
        with pytest.raises(InvariantViolation, match="gather"):
            checker.check_ship(GATHER, in_parts, out, 4,
                               len(in_parts[0]),
                               len(RECORDS) - len(in_parts[0]))

    def test_rejects_partition_count_mismatch(self):
        checker = InvariantChecker()
        with pytest.raises(InvariantViolation, match="partition per worker"):
            checker.check_ship(FORWARD, spread(RECORDS, 2),
                               spread(RECORDS, 2), 4, len(RECORDS), 0)

    def test_negative_counter_rejected(self):
        metrics = checked_metrics()
        with pytest.raises(InvariantViolation, match="negative"):
            metrics.add_shipped(local=-1, remote=0)


class TestDriverAudit:
    def test_map_must_be_one_to_one(self):
        checker = InvariantChecker()
        checker.check_driver("m", Contract.MAP, [10], 10)
        with pytest.raises(InvariantViolation, match="one-in/one-out"):
            checker.check_driver("m", Contract.MAP, [10], 9)

    def test_filter_cannot_grow(self):
        checker = InvariantChecker()
        checker.check_driver("f", Contract.FILTER, [10], 4)
        with pytest.raises(InvariantViolation, match="grow"):
            checker.check_driver("f", Contract.FILTER, [10], 11)

    def test_union_is_bag_union(self):
        checker = InvariantChecker()
        checker.check_driver("u", Contract.UNION, [4, 6], 10)
        with pytest.raises(InvariantViolation, match="bag union"):
            checker.check_driver("u", Contract.UNION, [4, 6], 9)

    def test_reduce_cannot_grow(self):
        checker = InvariantChecker()
        checker.check_driver("r", Contract.REDUCE, [10], 3)
        with pytest.raises(InvariantViolation, match="at most"):
            checker.check_driver("r", Contract.REDUCE, [10], 11)


class UndercountingIndex(SolutionSetIndex):
    """Re-introduces the historical ``apply_record`` bug: the index
    probe runs but is never counted as a solution access."""

    def apply_record(self, record):
        k = self.key(record)
        part = self._partitions[partition_index(k, self.parallelism)]
        old = part.get(k)  # the uncounted probe
        if old is not None and self.should_replace is not None:
            if not self.should_replace(record, old):
                return None
        part[k] = record
        if self.metrics is not None:
            self.metrics.add_solution_update()
        return record


class TestSolutionSetAudit:
    def test_rejects_apply_record_undercount(self):
        """apply_delta on the buggy subclass trips the probe-accounting
        law: 3 records probed, 0 accesses counted."""
        index = UndercountingIndex.build(
            [(i, 0) for i in range(8)], (0,), 4, checked_metrics()
        )
        with pytest.raises(InvariantViolation, match="probe accounting"):
            index.apply_delta([(1, 5), (2, 5), (99, 5)])

    def test_fixed_index_counts_rejected_updates_too(self):
        index = SolutionSetIndex.build(
            [(i, 5) for i in range(8)], (0,), 4, checked_metrics(),
            should_replace=lambda new, old: new[1] < old[1],
        )
        accepted = index.apply_delta([(1, 3), (2, 9), (3, 1)])
        assert [r[0] for r in accepted] == [1, 3]
        # all three probes counted, including the rejected (2, 9)
        assert index.metrics.solution_accesses == 3

    def test_rejects_misrouted_lookup(self):
        index = SolutionSetIndex.build(
            [(i, 0) for i in range(8)], (0,), 4, checked_metrics()
        )
        owner = partition_index(3, 4)
        assert index.lookup(owner, 3) == (3, 0)
        with pytest.raises(InvariantViolation, match="misrouted"):
            index.lookup((owner + 1) % 4, 3)

    def test_rejects_size_drift(self):
        checker = InvariantChecker()
        checker.check_delta_application("d", 10, 12, accepted=3, replaced=1)
        with pytest.raises(InvariantViolation, match="grew by"):
            checker.check_delta_application("d", 10, 13, accepted=3,
                                            replaced=1)

    def test_rejects_replaced_exceeding_accepted(self):
        checker = InvariantChecker()
        with pytest.raises(InvariantViolation, match="replaced"):
            checker.check_delta_application("d", 10, 8, accepted=1,
                                            replaced=3)


class TestVerifyTotals:
    def test_balanced_history_passes(self):
        metrics = checked_metrics()
        metrics.add_shipped(local=2, remote=1)  # outside supersteps
        metrics.begin_superstep(1)
        metrics.add_shipped(local=5, remote=7)
        metrics.add_processed("op", 4)
        metrics.add_solution_access(2)
        metrics.add_solution_update(1)
        metrics.end_superstep()
        metrics.verify_invariants()

    def test_catches_direct_counter_mutation(self):
        metrics = checked_metrics()
        metrics.begin_superstep(1)
        metrics.add_shipped(local=5, remote=7)
        metrics.end_superstep()
        metrics.records_shipped_remote += 3  # bypasses the hooks
        with pytest.raises(InvariantViolation, match="outside the collector"):
            metrics.verify_invariants()

    def test_catches_dropped_superstep(self):
        metrics = checked_metrics()
        metrics.begin_superstep(1)
        metrics.add_processed("op", 6)
        metrics.end_superstep()
        metrics.iteration_log.pop()  # lose the superstep's attribution
        with pytest.raises(InvariantViolation, match="dropped"):
            metrics.verify_invariants()

    def test_rejects_audit_mid_superstep(self):
        metrics = checked_metrics()
        metrics.begin_superstep(1)
        with pytest.raises(InvariantViolation, match="barrier"):
            metrics.verify_invariants()


class TestSpillAudit:
    """The out-of-core conservation law: resident + spilled == routed."""

    def test_balanced_pass_is_accepted(self):
        checker = InvariantChecker()
        checker.check_spill("op", routed=10, resident=7, spilled=3)
        checker.check_spill("op", routed=0, resident=0, spilled=0)
        assert checker.spill_checks == 2

    def test_lost_record_is_rejected(self):
        checker = InvariantChecker()
        with pytest.raises(InvariantViolation, match="lost or duplicated"):
            checker.check_spill("op", routed=10, resident=6, spilled=3)

    def test_double_written_record_is_rejected(self):
        checker = InvariantChecker()
        with pytest.raises(InvariantViolation, match="lost or duplicated"):
            checker.check_spill("op", routed=10, resident=7, spilled=4)

    def test_negative_accounting_is_rejected(self):
        checker = InvariantChecker()
        with pytest.raises(InvariantViolation, match="negative spill"):
            checker.check_spill("op", routed=5, resident=-1, spilled=6)

    def test_every_partition_pass_is_audited_end_to_end(self):
        """A spilled driver run under checking audits one spill balance
        per partition/sort pass — and a broken pass would have raised."""
        from repro.dataflow.graph import LogicalNode
        from repro.runtime import drivers
        from repro.storage import SpillManager, StorageSession

        inputs = [LogicalNode(Contract.SOURCE, data=[])]
        node = LogicalNode(
            Contract.REDUCE_GROUP, inputs,
            udf=lambda key, group: [(key, len(group))], key_fields=[(0,)],
        )
        node.flat = False
        metrics = checked_metrics()
        with StorageSession() as session:
            manager = SpillManager(1, session, metrics=metrics)
            out = drivers.run_reduce_group(
                node, [[(i % 16, i) for i in range(120)]],
                MetricsCollector(), spill=manager,
            )
        assert sorted(out) == [(k, 120 // 16 + (1 if k < 120 % 16 else 0))
                               for k in range(16)]
        assert metrics.invariants.spill_checks > 1  # root + recursive passes

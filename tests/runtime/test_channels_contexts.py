"""The ship framer depends on partition ownership only.

Two in-process fakes of a :class:`ClusterContext` each own two of four
partitions and swap frames in memory (no process is forked, nothing is
serialized).  Whatever one context that owns everything (``LOCAL``)
produces and counts, the two halves together must produce and count
too — for every non-forward strategy, row and column-born inputs, and
every chunk bound.
"""

import threading

import pytest

from repro.cluster.context import LOCAL, ClusterContext
from repro.common import columns as columns_mod
from repro.common.batch import RecordBatch
from repro.runtime import channels
from repro.runtime.invariants import attach_checker
from repro.runtime.metrics import MetricsCollector
from repro.runtime.plan import BROADCAST, GATHER, partition_on

PARALLELISM = 4
HASH = partition_on((0,))
RECORDS = [(i * 7 % 31, i) for i in range(45)]


class _Switch:
    """The shared memory two half-cluster contexts swap frames through."""

    def __init__(self):
        self.frames = {}
        self.barrier = threading.Barrier(2, timeout=10)


class _HalfCluster(ClusterContext):
    """Rank ``r`` of two; owns partitions ``2r`` and ``2r + 1``."""

    size = 2

    def __init__(self, rank, switch):
        self.rank = rank
        self.switch = switch

    def owned_partitions(self, parallelism):
        return (2 * self.rank, 2 * self.rank + 1)

    def route(self, frames, **framing):
        switch = self.switch
        switch.frames[self.rank] = frames
        switch.barrier.wait()
        out = [[] for _ in frames]
        for p in self.owned_partitions(len(frames)):
            for source_rank in range(self.size):
                out[p].extend(switch.frames[source_rank][p])
        switch.barrier.wait()  # nobody overwrites frames a peer still reads
        return out


def _partitions(column_born):
    parts = channels.round_robin(RECORDS, PARALLELISM)
    if not column_born:
        return parts
    out = []
    for part in parts:
        _arity, cols = columns_mod.columnarize(part)
        out.append(RecordBatch.from_columns(len(part), cols))
    return out


def _ship_on(cluster, strategy, column_born, batch_size):
    metrics = MetricsCollector()
    attach_checker(metrics)
    out = channels.ship(
        _partitions(column_born), strategy, PARALLELISM, metrics,
        cluster=cluster, batch_size=batch_size, columnar=column_born,
    )
    return [list(part) for part in out], metrics


def _ship_on_halves(strategy, column_born, batch_size):
    switch = _Switch()
    results = [None, None]

    def work(rank):
        results[rank] = _ship_on(
            _HalfCluster(rank, switch), strategy, column_born, batch_size
        )

    threads = [threading.Thread(target=work, args=(r,)) for r in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(20)
    assert all(result is not None for result in results), "a half failed"
    return results


@pytest.mark.parametrize("batch_size", [None, 1, 7])
@pytest.mark.parametrize("column_born", [False, True],
                         ids=["rows", "column-born"])
@pytest.mark.parametrize("strategy", [HASH, BROADCAST, GATHER],
                         ids=lambda s: s.kind.value)
def test_two_half_owners_equal_one_full_owner(strategy, column_born,
                                              batch_size):
    if column_born and not columns_mod.HAVE_NUMPY:
        pytest.skip("the column-born fast path needs numpy")
    expected, whole = _ship_on(LOCAL, strategy, column_born, batch_size)
    (out0, half0), (out1, half1) = _ship_on_halves(
        strategy, column_born, batch_size
    )
    assert out0[2:] == [[], []] and out1[:2] == [[], []]
    assert out0[:2] + out1[2:] == expected
    for counter in ("records_shipped_local", "records_shipped_remote",
                    "batches_shipped"):
        assert getattr(half0, counter) + getattr(half1, counter) == \
            getattr(whole, counter), counter
    # each context audited its own view once
    assert half0.invariants.ship_checks == half1.invariants.ship_checks == 1
    if strategy is HASH:
        for metrics in (whole, half0, half1):
            assert metrics.invariants.batch_checks == metrics.batches_shipped


@pytest.mark.skipif(not columns_mod.HAVE_NUMPY, reason="needs numpy")
@pytest.mark.parametrize("batch_size", [None, 3])
def test_columnar_fallback_audits_each_chunk_once(batch_size):
    """A ship that starts column-born but cannot scatter throughout (a
    later partition carries an object column) is framed by the row loop
    from the first chunk on — no chunk is audited or scattered twice."""
    parts = _partitions(column_born=True)
    tagged = [(key, str(value)) for key, value in parts[2].records]
    _arity, cols = columns_mod.columnarize(tagged)
    parts[2] = RecordBatch.from_columns(len(tagged), cols)
    metrics = MetricsCollector()
    checker = attach_checker(metrics)
    out = channels.ship(parts, HASH, PARALLELISM, metrics,
                        batch_size=batch_size, columnar=True)
    rows = [list(part) for part in parts]
    assert [list(part) for part in out] == channels.ship(
        rows, HASH, PARALLELISM, batch_size=batch_size
    )
    assert metrics.batches_shipped == sum(
        channels._chunk_count(len(part), batch_size) for part in rows
    )
    assert checker.batch_checks == metrics.batches_shipped

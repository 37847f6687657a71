"""Chunked fabric frames: tiny batches over real workers change nothing.

The SPMD exchange splits every payload into size-bounded batch chunks
(``RuntimeConfig.batch_size`` records, ``max_frame_bytes`` serialized
bytes, recursive bisection past the byte bound).  Reassembly is
per-stream FIFO with a counted terminator, so even pathological bounds
— two-record chunks, 256-byte frames — must leave results and logical
counters bitwise-identical to the in-process simulator.  These tests
run real forked workers under exactly those bounds.
"""

import pytest

from repro import ExecutionEnvironment
from repro.algorithms import connected_components as cc
from repro.algorithms import pagerank as pr
from repro.graphs import erdos_renyi
from repro.runtime.config import RuntimeConfig

pytestmark = pytest.mark.verify_invariants

PARALLELISM = 3

#: pathological data-plane bounds: a handful of records per chunk and a
#: frame budget small enough to force byte-level bisection as well
TINY = dict(batch_size=2, max_frame_bytes=256)


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(50, 2.5, seed=23)


def _env(backend, **overrides):
    config = RuntimeConfig(**overrides) if overrides else None
    return ExecutionEnvironment(PARALLELISM, backend=backend, config=config)


class TestChunkedExchange:
    def test_bulk_cc_is_chunking_invariant(self, graph):
        sim_env = _env("simulated")
        expected = cc.cc_bulk(sim_env, graph)
        mp_env = _env("multiprocess", **TINY)
        actual = cc.cc_bulk(mp_env, graph)
        assert actual == expected
        assert mp_env.metrics.logical() == sim_env.metrics.logical()

    def test_pagerank_floats_survive_byte_bisection(self, graph):
        """Bisection changes frame boundaries, never arrival order, so
        float summation stays bitwise-identical."""
        sim_env = _env("simulated")
        expected = pr.pagerank_bulk(sim_env, graph, iterations=3,
                                    plan="partition")
        mp_env = _env("multiprocess", **TINY)
        actual = pr.pagerank_bulk(mp_env, graph, iterations=3,
                                  plan="partition")
        assert actual == expected

    @pytest.mark.parametrize("mode", ["superstep", "async"])
    def test_delta_iterations_under_tiny_frames(self, graph, mode):
        sim_env = _env("simulated")
        expected = cc.cc_incremental(sim_env, graph, variant="match",
                                     mode=mode)
        mp_env = _env("multiprocess", **TINY)
        actual = cc.cc_incremental(mp_env, graph, variant="match", mode=mode)
        assert actual == expected
        assert mp_env.metrics.logical() == sim_env.metrics.logical()

    def test_record_at_a_time_backends_still_agree(self, graph):
        """batch_size=1 on BOTH backends: the degenerate framing the
        acceptance audit runs (REPRO_BATCH_SIZE=1)."""
        sim_env = _env("simulated", batch_size=1)
        expected = cc.cc_bulk(sim_env, graph)
        mp_env = _env("multiprocess", batch_size=1)
        actual = cc.cc_bulk(mp_env, graph)
        assert actual == expected
        assert mp_env.metrics.logical() == sim_env.metrics.logical()

    def test_chunking_does_not_leak_into_logical_counters(self, graph):
        """Tiny chunks multiply frames and batches, but the logical
        counters the audit compares must not move at all."""
        default_env = _env("multiprocess")
        expected = cc.cc_bulk(default_env, graph)
        tiny_env = _env("multiprocess", **TINY)
        actual = cc.cc_bulk(tiny_env, graph)
        assert actual == expected
        assert tiny_env.metrics.logical() == default_env.metrics.logical()
        # physical batch counts DO move — that's what makes them physical
        assert tiny_env.metrics.batches_shipped > \
            default_env.metrics.batches_shipped

"""Zero-copy columnar framing: fixed-width frames never pickle payload.

The columnar data plane's wire contract: a frame whose columns are all
fixed-width crosses the shm ring as raw memcpys — only the small schema
header touches pickle — and the ``columns_zero_copied`` /
``bytes_zero_copied`` counters record exactly those buffers, from the
endpoint wire counters up through the job-level metrics of real pooled
workers.  Object columns and inline (below-threshold) frames are
serialized and must count nothing.
"""

import multiprocessing

import pytest

from repro import ExecutionEnvironment
from repro.algorithms import connected_components as cc
from repro.cluster import PoolBackend, SimulatedBackend
from repro.cluster.fabric import Fabric
from repro.common import columns as columns_mod
from repro.graphs import erdos_renyi
from repro.systems.sparklike import SparkLikeContext


@pytest.fixture
def fabric():
    ctx = multiprocessing.get_context("fork")
    fab = Fabric(size=2, mp_context=ctx, timeout=2.0)
    yield fab
    fab.close()


def _endpoints(fab, threshold=256):
    # drop the shm threshold so kilobyte-scale frames take the ring
    a, b = fab.endpoint(0), fab.endpoint(1)
    a.shm_threshold = b.shm_threshold = threshold
    return a, b


class TestEndpointZeroCopy:
    def test_fixed_width_frames_count_every_payload_byte(self, fabric):
        a, b = _endpoints(fabric)
        records = [(i, float(i)) for i in range(1000)]
        _arity, cols = columns_mod.columnarize(records)
        header, buffers = columns_mod.encode_frame(cols, len(records), (0,))
        payload_bytes = sum(len(buf) for buf in buffers)
        a.send_columns(1, tag="t", header=header, buffers=buffers)
        # both columns crossed as raw memoryviews: the counters prove
        # the payload path never entered pickle
        assert a.columns_zero_copied == 2
        assert a.bytes_zero_copied == payload_bytes == 1000 * 16
        kind_payload = b.recv(0, tag="t")
        assert kind_payload[0] == "cols"
        length, out_cols, key_fields = columns_mod.decode_frame(
            kind_payload[1], kind_payload[2]
        )
        assert key_fields == (0,)
        assert columns_mod.materialize_rows(out_cols, length) == records

    def test_object_columns_are_pickled_and_not_counted(self, fabric):
        a, b = _endpoints(fabric)
        records = [(i, "label-%d" % i) for i in range(1000)]
        _arity, cols = columns_mod.columnarize(records)
        header, buffers = columns_mod.encode_frame(cols, len(records), (0,))
        a.send_columns(1, tag="t", header=header, buffers=buffers)
        # only the int column is zero-copied; the string column arrives
        # at the fabric as an already-pickled blob
        assert a.columns_zero_copied == 1
        assert a.bytes_zero_copied == 1000 * 8
        kind_payload = b.recv(0, tag="t")
        length, out_cols, _fields = columns_mod.decode_frame(
            kind_payload[1], kind_payload[2]
        )
        assert columns_mod.materialize_rows(out_cols, length) == records

    def test_inline_fallback_counts_nothing(self, fabric):
        # default threshold: a small frame rides the control queue as
        # one pickled tuple, so the zero-copy counters stay untouched
        a, b = fabric.endpoint(0), fabric.endpoint(1)
        records = [(1, 2), (3, 4)]
        _arity, cols = columns_mod.columnarize(records)
        header, buffers = columns_mod.encode_frame(cols, len(records), None)
        a.send_columns(1, tag="t", header=header, buffers=buffers)
        assert a.columns_zero_copied == 0
        assert a.bytes_zero_copied == 0
        kind_payload = b.recv(0, tag="t")
        length, out_cols, _fields = columns_mod.decode_frame(
            kind_payload[1], kind_payload[2]
        )
        assert columns_mod.materialize_rows(out_cols, length) == records


class TestJobZeroCopy:
    """Job-level accounting on real forked workers."""

    @pytest.fixture(scope="class")
    def graph(self):
        # big enough that full batch-size chunks of two-int-column
        # frames (1024 rows x 16 bytes) clear the 16 KiB shm threshold
        return erdos_renyi(2000, 4.0, seed=23)

    def test_pool_job_counts_zero_copied_columns(self, graph):
        env = ExecutionEnvironment(2, backend="pool")
        result = cc.cc_bulk(env, graph)
        assert env.metrics.columns_zero_copied > 0
        assert env.metrics.bytes_zero_copied > 0
        # and the physical fast path changed nothing observable
        sim_env = ExecutionEnvironment(2)
        assert cc.cc_bulk(sim_env, graph) == result
        assert env.metrics.logical() == \
            sim_env.metrics.logical()

    def test_sparklike_job_counts_zero_copied_columns(self, graph):
        """The Spark-like engine's shuffles ship columns too."""
        def program(cluster):
            ctx = SparkLikeContext(2, cluster=cluster)
            return cc.cc_sparklike(ctx, graph), ctx.metrics

        backend = PoolBackend()
        try:
            result, metrics = backend.run_program(program, 2)
        finally:
            backend.close()
        assert metrics.columns_zero_copied > 0
        expect, sim_metrics = SimulatedBackend().run_program(program, 2)
        assert result == expect
        assert metrics.logical() == \
            sim_metrics.logical()

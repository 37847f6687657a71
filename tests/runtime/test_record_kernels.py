"""Record-wise kernels: every caller runs the one loop per contract.

MAP, FLAT_MAP and FILTER each have one record loop,
:data:`repro.runtime.drivers.RECORD_KERNELS`.  The per-operator driver,
a fused chain, a microstep stage and an RDD narrow transformation must
all produce exactly what that kernel produces — on empty inputs and on
UDFs whose results are ``None`` or falsy too.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import ExecutionEnvironment
from repro.dataflow.contracts import Contract
from repro.dataflow.graph import LogicalNode
from repro.iterations import microstep_runtime
from repro.runtime import drivers
from repro.runtime.metrics import MetricsCollector
from repro.systems.sparklike import SparkLikeContext

#: per contract, UDFs whose results include None, falsy and empty values
UDFS = {
    Contract.MAP: [
        lambda r: r * 2,
        lambda r: None if r % 3 == 0 else r,
        lambda r: r % 2,
    ],
    Contract.FLAT_MAP: [
        lambda r: [r] * (r % 3),
        lambda r: () if r % 2 else (r, None),
        lambda r: [0, ""][: r % 3],
    ],
    Contract.FILTER: [
        lambda r: r % 3,
        lambda r: None if r % 2 else r,
        lambda r: "" if r > 5 else [r],
    ],
}


def _driver(contract, fn, records):
    node = LogicalNode(contract, [LogicalNode(Contract.SOURCE, data=[])],
                       udf=fn)
    return drivers.run_driver(node, None, [records], MetricsCollector())


def _fused_chain(contract, fn, records):
    env = ExecutionEnvironment(parallelism=1)
    head = env.from_iterable(records).map(lambda r: r)
    ds = {
        Contract.MAP: head.map,
        Contract.FLAT_MAP: head.flat_map,
        Contract.FILTER: head.filter,
    }[contract](fn)
    out = env.collect(ds)
    assert env.last_plan.chains, "the head map and the operator must fuse"
    return out


def _microstep_stage(contract, fn, records):
    op = LogicalNode(contract, [LogicalNode(Contract.SOURCE, data=[])],
                     udf=fn)
    return microstep_runtime._compile_stage(None, None, op)(0, records)


def _rdd(contract, fn, records):
    rdd = SparkLikeContext(parallelism=1).parallelize(records)
    return {
        Contract.MAP: rdd.map,
        Contract.FLAT_MAP: rdd.flat_map,
        Contract.FILTER: rdd.filter,
    }[contract](fn).collect()


CALLERS = [_driver, _fused_chain, _microstep_stage, _rdd]


@pytest.mark.parametrize("caller", CALLERS, ids=lambda c: c.__name__[1:])
@pytest.mark.parametrize("contract", sorted(UDFS, key=lambda c: c.value),
                         ids=lambda c: c.value)
@settings(max_examples=25, deadline=None)
@given(records=st.lists(st.integers(0, 20), max_size=40),
       udf=st.integers(0, 2))
@example(records=[], udf=0)
@example(records=[0, 3, 6], udf=1)
def test_caller_matches_the_shared_kernel(caller, contract, records, udf):
    fn = UDFS[contract][udf]
    expected = drivers.RECORD_KERNELS[contract](fn, list(records))
    assert caller(contract, fn, list(records)) == expected

"""Run identity has one rule: ``RunResult.canonical_bytes()``.

The bytes are ``to_json()`` without ``VOLATILE_RESULT_FIELDS``, in the
document's own key order.  Every tier must hand back the in-process bytes
of a request: a pool worker's result crosses one socket, a fleet's two,
and the wire keeps document order (``categories`` in first-use order), so
nothing may reorder them on the way.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RunRequest, RunResult, execute
from repro.api.types import fault_plan_to_doc
from repro.serve import FleetService, RunService, WireServer
from repro.sim.faults import FaultPlan

#: a DSM key whose categories are first used out of sorted order, and a
#: synchronisation-bound one
TIER_REQUESTS = [RunRequest("jacobi", "spf", 2, "test", seq_time=1.0),
                 RunRequest("jacobi", "tmk", 4, "test", seq_time=1.0)]


def test_every_tier_hands_back_the_in_process_bytes():
    direct = [execute(r).canonical_bytes() for r in TIER_REQUESTS]
    with RunService(workers=1) as pool:
        pooled = pool.run_batch(TIER_REQUESTS).results
        server = WireServer(pool)
        server.serve_in_thread()
        try:
            with FleetService([f"{server.host}:{server.port}"]) as fleet:
                fleeted = fleet.run_batch(TIER_REQUESTS).results
        finally:
            server.close()
    assert [r.canonical_bytes() for r in pooled] == direct
    assert [r.canonical_bytes() for r in fleeted] == direct


#: one result of each kind the document carries: sequential, compiler
#: DSM (categories), speculation stats, XHPF, message passing, hand-coded
#: DSM with readback hashes and a race verdict, a fault plan, the model
ROUND_TRIP_REQUESTS = [
    RunRequest("jacobi", "seq", 1, "test"),
    RunRequest("jacobi", "spf", 2, "test", seq_time=1.0),
    RunRequest("igrid", "spf_spec", 2, "test", seq_time=1.0),
    RunRequest("igrid", "xhpf", 2, "test", seq_time=1.0),
    RunRequest("jacobi", "pvme", 2, "test", seq_time=1.0),
    RunRequest("jacobi", "tmk", 2, "test", seq_time=1.0, readback=True,
               racecheck=True),
    RunRequest("jacobi", "spf", 2, "test", seq_time=1.0,
               fault_plan=fault_plan_to_doc(FaultPlan.default(seed=1))),
    RunRequest("jacobi", "spf", 64, "test", mode="model"),
]


def _over_the_wire(result: RunResult) -> RunResult:
    return RunResult.from_json(json.loads(json.dumps(result.to_json())))


def _assert_round_trip_keeps_identity(result: RunResult) -> None:
    assert _over_the_wire(result).canonical_bytes() \
        == result.canonical_bytes()
    assert result.fingerprint() == json.loads(result.canonical_bytes())


@pytest.mark.parametrize("request_", ROUND_TRIP_REQUESTS, ids=[
    "seq", "spf", "spf_spec", "xhpf", "pvme", "tmk-readback-racecheck",
    "spf-faults", "model"])
def test_wire_round_trip_keeps_the_bytes(request_):
    result = execute(request_)
    assert result.ok, result.error
    _assert_round_trip_keeps_identity(result)


def test_failure_round_trip_keeps_the_bytes():
    _assert_round_trip_keeps_identity(RunResult.failure(
        RunRequest("jacobi", "spf", 2, "test", tag="t"), "boom",
        "ValueError"))


@settings(max_examples=60, deadline=None)
@given(categories=st.dictionaries(
    st.text(min_size=1, max_size=8),
    st.tuples(st.integers(0, 10**6), st.floats(0, 1e9)), max_size=6),
    signature=st.dictionaries(st.text(max_size=8),
                              st.floats(allow_nan=False), max_size=4))
def test_round_trip_keeps_any_key_order(categories, signature):
    _assert_round_trip_keeps_identity(RunResult(
        "jacobi", "spf", 2, "test", categories=categories,
        signature=signature))

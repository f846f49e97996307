"""Edge-case and property tests for the analytic model.

Structural invariants that must hold for *any* inputs, independent of
the agreement bounds in test_model_validation.py: one node means no
communication, predictions are pure functions of their inputs, message
counts for the message-passing variants cannot shrink as nodes are
added, and no machine parameterization can produce negative costs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.model import model_variant
from repro.eval.constants import APPS
from repro.sim.machine import SP2_MODEL

PRESET = "test"
MODELED = ["spf", "spf_old", "xhpf", "xhpf_ie"]


@pytest.mark.parametrize("variant", MODELED)
@pytest.mark.parametrize("app", APPS)
def test_one_node_degenerates_to_sequential(app, variant):
    res = model_variant(app, variant, nprocs=1, preset=PRESET)
    assert res.messages == 0 and res.kilobytes == 0.0
    assert res.total_messages == 0 and res.total_kilobytes == 0.0
    assert res.time > 0


@pytest.mark.parametrize("variant", MODELED)
def test_predictions_are_deterministic(variant):
    a = model_variant("mgs", variant, nprocs=4, preset=PRESET)
    b = model_variant("mgs", variant, nprocs=4, preset=PRESET)
    assert a.canonical_bytes() == b.canonical_bytes()


@pytest.mark.parametrize("variant", ["xhpf", "xhpf_ie"])
@pytest.mark.parametrize("app", APPS)
def test_mp_messages_grow_with_nodes(app, variant):
    counts = [model_variant(app, variant, nprocs=n,
                            preset=PRESET).total_messages
              for n in (2, 4, 8, 16)]
    assert counts == sorted(counts), counts
    assert counts[0] > 0


_positive = st.floats(min_value=1e-9, max_value=1e-2,
                      allow_nan=False, allow_infinity=False)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(latency=_positive, byte_time=_positive, send=_positive,
       recv=_positive, fault=_positive, twin=_positive, proto=_positive)
@pytest.mark.parametrize("variant", ["spf", "xhpf_ie"])
def test_random_machines_never_go_negative(variant, latency, byte_time,
                                           send, recv, fault, twin, proto):
    mach = SP2_MODEL.with_(latency=latency, byte_time=byte_time,
                           send_overhead=send, recv_overhead=recv,
                           fault_overhead=fault, twin_overhead=twin,
                           protocol_overhead=proto)
    res = model_variant("igrid", variant, nprocs=4, preset=PRESET,
                        machine=mach)
    assert res.time >= 0
    assert res.messages >= 0 and res.kilobytes >= 0.0
    assert res.total_messages >= res.messages
    assert res.total_kilobytes >= res.kilobytes - 1e-9

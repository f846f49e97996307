"""Model-vs-sim agreement: the analytic model's contract, as code.

The analytic mode (:mod:`repro.compiler.model`) is only trustworthy at
16-1024 nodes because it is *validated* here at N <= 8 against the event
simulator, app by app and variant by variant — the validate-small /
trust-large protocol of docs/MODEL.md.  The tolerances below ARE the
model's contract: tight for the statically-regular applications (the
protocol replica tracks the simulator message-for-message), documented
looser bounds for ``mgs`` (lock-chain ordering differs from the
simulated schedule) and ``igrid`` (a page of diff traffic can land on
either side of the measured-window boundary; whole-run totals stay
tight).  Widening one is an API change and should be treated as such.
"""

import numpy as np
import pytest

from repro.api import RunRequest, execute, machine_to_doc
from repro.api.registry import VARIANTS
from repro.compiler.ir import (Access, ArrayDecl, Full, Irregular,
                               ParallelLoop, Program, Span, TimeLoop)
from repro.compiler.model import (MODELED_VARIANTS, ModelUnsupportedVariant,
                                  _XhpfModel, model_variant)
from repro.compiler.xhpf import run_xhpf
from repro.eval.constants import APPS
from repro.sim.machine import SP2_MODEL

PRESET = "test"
NODES = [1, 2, 4, 8]

# (relative, absolute) slack per metric: |model - sim| <= rel*sim + abs.
# msgs/kb are the measured window (the paper's tables); tmsgs/tkb are
# whole-run totals.
DSM_TOLERANCES = {
    "jacobi":  dict(msgs=(0.02, 4), kb=(0.02, 1.0),
                    tmsgs=(0.02, 4), tkb=(0.02, 1.0)),
    "shallow": dict(msgs=(0.02, 4), kb=(0.02, 1.0),
                    tmsgs=(0.02, 4), tkb=(0.02, 1.0)),
    "fft3d":   dict(msgs=(0.02, 4), kb=(0.02, 1.0),
                    tmsgs=(0.02, 4), tkb=(0.02, 1.0)),
    "nbf":     dict(msgs=(0.02, 4), kb=(0.02, 1.0),
                    tmsgs=(0.02, 4), tkb=(0.02, 1.0)),
    # mgs folds a reduction under a lock every iteration; the model's
    # pid-order lock chain differs from the simulated arrival order, so
    # grant piggyback sizes drift a little.
    "mgs":     dict(msgs=(0.12, 4), kb=(0.06, 1.0),
                    tmsgs=(0.12, 4), tkb=(0.06, 1.0)),
    # igrid's measured window is a few KB; one 4 KB page of diff traffic
    # landing on the other side of the start mark dominates the relative
    # window error.  Whole-run totals are the binding bound.
    "igrid":   dict(msgs=(0.08, 6), kb=(0.45, 8.0),
                    tmsgs=(0.08, 6), tkb=(0.10, 2.0)),
}
# Message-passing variants: whole-run totals are exact (the model counts
# the backend's own communication plan, at the plan's arithmetic sizes, so
# equal totals prove those sizes are the bytes the backend sends); window
# splits differ slightly because the model charges prologue broadcasts
# before the mark.
MP_TOLERANCES = dict(msgs=(0.10, 6), kb=(0.13, 1.0),
                     tmsgs=(0, 0), tkb=(0, 0))

_sim_cache: dict = {}


def _sim(app, variant, n):
    key = (app, variant, n)
    if key not in _sim_cache:
        _sim_cache[key] = execute(RunRequest(app, variant, nprocs=n,
                                             preset=PRESET))
    return _sim_cache[key]


def _check(label, modeled, simulated, rel, abs_):
    slack = rel * simulated + abs_
    assert abs(modeled - simulated) <= slack, (
        f"{label}: model={modeled} sim={simulated} "
        f"(tolerance {rel:.0%} + {abs_})")


@pytest.mark.parametrize("n", NODES)
@pytest.mark.parametrize("variant", ["spf", "spf_old", "xhpf", "xhpf_ie"])
@pytest.mark.parametrize("app", APPS)
def test_model_matches_simulator(app, variant, n):
    tol = DSM_TOLERANCES[app] if variant.startswith("spf") \
        else MP_TOLERANCES
    mod = model_variant(app, variant, nprocs=n, preset=PRESET)
    sim = _sim(app, variant, n)
    assert mod.mode == "model" and sim.mode == "sim"
    _check(f"{app}/{variant}/n={n} window msgs",
           mod.messages, sim.messages, *tol["msgs"])
    _check(f"{app}/{variant}/n={n} window KB",
           mod.kilobytes, sim.kilobytes, *tol["kb"])
    _check(f"{app}/{variant}/n={n} total msgs",
           mod.total_messages, sim.total_messages, *tol["tmsgs"])
    _check(f"{app}/{variant}/n={n} total KB",
           mod.total_kilobytes, sim.total_kilobytes, *tol["tkb"])
    # The model is a replica, not a curve fit: it must compute the same
    # answer, not just the same traffic (1e-6 covers float accumulation
    # order, e.g. nbf's force reduction).
    assert mod.signature.keys() == sim.signature.keys()
    for name, value in sim.signature.items():
        assert mod.signature[name] == pytest.approx(value, rel=1e-6), name


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("variant", ["xhpf", "xhpf_ie"])
@pytest.mark.parametrize("app", APPS)
def test_xhpf_totals_exact_on_uneven_blocks(app, variant, n):
    mod = model_variant(app, variant, nprocs=n, preset=PRESET)
    sim = _sim(app, variant, n)
    assert (mod.total_messages, mod.total_kilobytes) == \
        (sim.total_messages, sim.total_kilobytes)


@pytest.mark.parametrize("variant", ["xhpf", "xhpf_ie"])
@pytest.mark.parametrize("app", APPS)
def test_xhpf_totals_exact_unsegmented(app, variant):
    """``mp_packet_bytes=0`` (every send one message) is the one way to
    ask for an unsegmented runtime, and both evaluators honour it."""
    machine = SP2_MODEL.with_(mp_packet_bytes=0)
    mod = model_variant(app, variant, nprocs=4, preset=PRESET,
                        machine=machine)
    sim = execute(RunRequest(app, variant, nprocs=4, preset=PRESET,
                             machine=machine_to_doc(machine)))
    assert (mod.total_messages, mod.total_kilobytes) == \
        (sim.total_messages, sim.total_kilobytes)
    assert sim.total_messages <= _sim(app, variant, 4).total_messages


@pytest.mark.parametrize("app", APPS)
def test_xhpf_categories_match_at_one_node(app):
    """One processor sends nothing, so no category may appear."""
    mod = model_variant(app, "xhpf", nprocs=1, preset=PRESET)
    assert mod.categories == _sim(app, "xhpf", 1).categories == {}


def _alternating_gather(size=32, shifts=(0, 5, 0, 5)):
    """One irregular gather whose row shift flips between two patterns."""
    def stmt(t):
        shift = shifts[t]

        def rows(lo, hi):
            return (np.arange(lo, hi) + shift) % size

        def footprint(views, lo, hi):
            return (rows(lo, hi)[:, None] * size
                    + np.arange(size)[None, :]).ravel()

        def kernel(views, lo, hi):
            views["dst"][lo:hi] = views["src"][rows(lo, hi)]

        return [ParallelLoop("gather", size, kernel,
                             reads=[Access("src", Irregular(footprint))],
                             writes=[Access("dst", (Span(), Full()))],
                             align=("dst", 0))]

    return Program("alternating", arrays=[
        ArrayDecl("src", (size, size), np.float64, distribute=0),
        ArrayDecl("dst", (size, size), np.float64, distribute=0)],
        body=[TimeLoop("t", len(shifts), stmt)])


@pytest.mark.parametrize("n", [2, 4])
def test_xhpf_ie_reinspects_a_footprint_that_returns(n):
    """The inspector keeps one schedule per loop: a footprint that flips
    back to an earlier pattern is inspected (and its schedule exchanged)
    again, in the model as in the simulator."""
    sim = run_xhpf(_alternating_gather(), nprocs=n, inspector_executor=True)
    mod = _XhpfModel(_alternating_gather(), n, SP2_MODEL.with_(nprocs=n),
                     inspector_executor=True)
    mod.run()
    assert (mod.traffic.messages, mod.traffic.bytes) == \
        (sim.stats.messages, sim.stats.bytes)
    assert [c.inspections for c in mod.schedules] == [4] * n


@pytest.mark.parametrize("variant",
                         [v for v in VARIANTS if v not in MODELED_VARIANTS])
def test_unmodeled_variants_refuse(variant):
    with pytest.raises(ModelUnsupportedVariant):
        model_variant("jacobi", variant, nprocs=8, preset=PRESET)


def test_seq_is_modeled_as_the_oracle():
    mod = execute(RunRequest("jacobi", "seq", preset=PRESET, mode="model"))
    sim = execute(RunRequest("jacobi", "seq", preset=PRESET))
    assert mod.mode == "model"
    assert mod.time == sim.time
    assert mod.messages == 0 and mod.kilobytes == 0.0
    with pytest.raises(ModelUnsupportedVariant):   # run, not predicted
        model_variant("jacobi", "seq", preset=PRESET)


# The model's virtual time for the DSM variants is unvalidated (docs/MODEL.md);
# the one property of it the sweep's readers lean on is the paper's §2.3
# ordering: the improved fork-join interface beats the original one.
_INVERTED = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the model inverts the ordering from N = 32, likely because its "
    "barriers take arrival as a max and charge the manager no serial "
    "receives"))


@pytest.mark.parametrize("n", [16, pytest.param(32, marks=_INVERTED),
                               pytest.param(64, marks=_INVERTED)])
def test_model_keeps_the_interface_ordering(n):
    sim = {v: execute(RunRequest("jacobi", v, n, PRESET)).time
           for v in ("spf", "spf_old")}
    assert sim["spf"] < sim["spf_old"]
    mod = {v: model_variant("jacobi", v, nprocs=n, preset=PRESET).time
           for v in ("spf", "spf_old")}
    assert mod["spf"] < mod["spf_old"], (mod, sim)

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

import pytest

from repro.api import RunRequest, run
from repro.compiler.model import (MODELED_VARIANTS, ModelUnsupportedVariant,
                                  model_variant)
from repro.eval.constants import APPS
from repro.eval.experiments import VARIANTS

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
# Message-passing variants: whole-run totals are exact (the exchange
# schedule is deterministic); window splits differ slightly because the
# model charges prologue broadcasts before the mark.
MP_TOLERANCES = dict(msgs=(0.10, 6), kb=(0.13, 1.0),
                     tmsgs=(0.01, 2), tkb=(0.01, 2.0))

_sim_cache: dict = {}


def _sim(app, variant, n):
    key = (app, variant, n)
    if key not in _sim_cache:
        _sim_cache[key] = run(RunRequest(app, variant, nprocs=n, preset=PRESET))
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


@pytest.mark.parametrize("variant",
                         [v for v in VARIANTS if v not in MODELED_VARIANTS])
def test_unmodeled_variants_refuse(variant):
    with pytest.raises(ModelUnsupportedVariant):
        model_variant("jacobi", variant, nprocs=8, preset=PRESET)


def test_seq_is_modeled_as_the_oracle():
    mod = model_variant("jacobi", "seq", preset=PRESET)
    sim = run(RunRequest("jacobi", "seq", preset=PRESET))
    assert mod.mode == "model"
    assert mod.time == sim.time
    assert mod.messages == 0 and mod.kilobytes == 0.0

"""The full option matrix over every application (test sizes).

Beyond the four paper variants (tests/test_apps_correctness.py), every SPF
extension and the XHPF inspector must preserve correctness on every
application it applies to — including apps with max/min reductions (IGrid)
and accumulation buffers (NBF).
"""

import pytest

from repro.api import RunRequest, execute
from repro.apps.common import get_app, signatures_close
from repro.compiler.spf import SpfOptions, run_spf
from repro.compiler.xhpf import run_xhpf
from repro.sim.machine import SP2_MODEL

APPS = ["jacobi", "shallow", "mgs", "fft3d", "igrid", "nbf"]

_seq = {}


def seq(app):
    if app not in _seq:
        _seq[app] = execute(RunRequest(app, "seq", preset="test"))
    return _seq[app]


def run_app_spf(app, options, nprocs=4):
    spec = get_app(app)
    prog = spec.build_program(spec.params("test"))
    return run_spf(prog, nprocs=nprocs, options=options)


@pytest.mark.parametrize("app", APPS)
def test_tree_reductions_every_app(app):
    r = run_app_spf(app, SpfOptions(tree_reductions=True))
    assert signatures_close(seq(app).signature, r.scalars, rtol=1e-6), (
        app, r.scalars, seq(app).signature)


@pytest.mark.parametrize("app", APPS)
def test_push_halos_every_app(app):
    r = run_app_spf(app, SpfOptions(push_halos=True))
    assert signatures_close(seq(app).signature, r.scalars, rtol=1e-6), app


@pytest.mark.parametrize("app", APPS)
def test_everything_on_every_app(app):
    spec = get_app(app)
    base = (spec.spf_opt_options() if spec.spf_opt_options
            else SpfOptions())
    options = SpfOptions(
        improved_interface=True,
        aggregate=base.aggregate, fuse_loops=base.fuse_loops,
        piggyback=base.piggyback,
        tree_reductions=True, push_halos=True)
    r = run_app_spf(app, options)
    assert signatures_close(seq(app).signature, r.scalars, rtol=1e-6), app


@pytest.mark.parametrize("app", ["jacobi", "igrid"])
def test_old_interface_with_extensions(app):
    options = SpfOptions(improved_interface=False, tree_reductions=True)
    r = run_app_spf(app, options)
    assert signatures_close(seq(app).signature, r.scalars, rtol=1e-6), app


@pytest.mark.parametrize("app", APPS)
def test_xhpf_unsegmented_every_app(app):
    spec = get_app(app)
    prog = spec.build_program(spec.params("test"))
    r = run_xhpf(prog, nprocs=4, model=SP2_MODEL.with_(mp_packet_bytes=0))
    assert signatures_close(seq(app).signature, r.scalars, rtol=1e-6), app


@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("nprocs", [5])
def test_awkward_processor_count_every_app(app, nprocs):
    """5 processors: nothing divides evenly anywhere."""
    r = execute(RunRequest(app, "spf", nprocs=nprocs, preset="test",
                           seq_time=seq(app).time))
    assert signatures_close(seq(app).signature, r.signature,
                            rtol=1e-6), app

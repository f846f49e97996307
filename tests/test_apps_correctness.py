"""Every application, every variant, against the sequential oracle.

This is the repository's central correctness statement: all four
implementation strategies of all six applications compute the same numbers
the sequential program does (within float32 chunked-summation noise), on
divisible and non-divisible processor counts.
"""

import pytest

from repro.api import RunRequest, run
from repro.apps.common import APP_REGISTRY, get_app, signatures_close

APPS = ["jacobi", "shallow", "mgs", "fft3d", "igrid", "nbf"]
VARIANTS = ["spf", "tmk", "xhpf", "pvme"]

_seq_cache = {}


def seq_signature(app):
    if app not in _seq_cache:
        _seq_cache[app] = run(RunRequest(app, "seq", preset="test"))
    return _seq_cache[app]


def test_registry_complete():
    assert set(APP_REGISTRY) == set(APPS)
    for app in APPS:
        spec = get_app(app)
        assert spec.presets.keys() >= {"paper", "bench", "test"}
        assert spec.regular == (app in ("jacobi", "shallow", "mgs", "fft3d"))


@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_variant_matches_sequential(app, variant):
    seq = seq_signature(app)
    res = run(RunRequest(app, variant, nprocs=4, preset="test",
                         seq_time=seq.time))
    assert signatures_close(seq.signature, res.signature, rtol=1e-6), (
        f"{app}/{variant}: {res.signature} != {seq.signature}")


@pytest.mark.parametrize("app", APPS)
def test_nondivisible_processor_count(app):
    """3 processors: block remainders and cyclic wrap still correct."""
    seq = seq_signature(app)
    res = run(RunRequest(app, "tmk", nprocs=3, preset="test",
                         seq_time=seq.time))
    assert signatures_close(seq.signature, res.signature, rtol=1e-6)


@pytest.mark.parametrize("app", ["jacobi", "igrid"])
def test_compiled_variants_on_two_procs(app):
    seq = seq_signature(app)
    for variant in ("spf", "xhpf"):
        res = run(RunRequest(app, variant, nprocs=2, preset="test",
                             seq_time=seq.time))
        assert signatures_close(seq.signature, res.signature, rtol=1e-6)


@pytest.mark.parametrize("app", APPS)
def test_spf_optimized_variant_same_answer(app):
    """The paper's hand optimizations must not change results."""
    spec = get_app(app)
    if spec.spf_opt_options is None:
        pytest.skip("no hand-optimized variant in the paper")
    seq = seq_signature(app)
    res = run(RunRequest(app, "spf_opt", nprocs=4, preset="test",
                         seq_time=seq.time))
    assert signatures_close(seq.signature, res.signature, rtol=1e-6)


@pytest.mark.parametrize("app", ["jacobi", "mgs"])
def test_spf_old_interface_same_answer(app):
    seq = seq_signature(app)
    res = run(RunRequest(app, "spf_old", nprocs=4, preset="test",
                         seq_time=seq.time))
    assert signatures_close(seq.signature, res.signature, rtol=1e-6)


@pytest.mark.parametrize("app", APPS)
def test_variants_deterministic(app):
    a = run(RunRequest(app, "tmk", nprocs=4, preset="test"))
    b = run(RunRequest(app, "tmk", nprocs=4, preset="test"))
    assert a.time == b.time
    assert a.messages == b.messages
    assert a.signature == b.signature

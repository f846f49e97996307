"""Every application, every variant, against the sequential oracle.

This is the repository's central correctness statement: all four
implementation strategies of all six applications compute the same numbers
the sequential program does (within float32 chunked-summation noise), on
divisible and non-divisible processor counts.
"""

import pytest

from repro.api import RunRequest, execute
from repro.apps.common import (APP_REGISTRY, KNOWN_DEFECTS, get_app,
                               signatures_close)

APPS = ["jacobi", "shallow", "mgs", "fft3d", "igrid", "nbf"]
VARIANTS = ["spf", "tmk", "xhpf", "pvme"]

_seq_cache = {}


def seq_signature(app):
    if app not in _seq_cache:
        _seq_cache[app] = execute(RunRequest(app, "seq", preset="test"))
    return _seq_cache[app]


def test_registry_complete():
    assert set(APP_REGISTRY) == set(APPS)
    for app in APPS:
        spec = get_app(app)
        assert spec.presets.keys() >= {"paper", "bench", "test"}
        assert spec.regular == (app in ("jacobi", "shallow", "mgs", "fft3d"))


# wrong numbers with ok=True (KNOWN_DEFECTS) are strict xfails until
# fixed; fixing either moves the benchmark's golden digests
def _cases(variants, counts, historical):
    """(app, variant, nprocs) params; ids keep their pre-matrix form at the
    ``historical`` processor count and gain an ``-nN`` suffix elsewhere."""
    out = []
    for nprocs in counts:
        for variant in variants:
            for app in APPS:
                parts = [variant, app] if len(variants) > 1 else [app]
                if nprocs != historical:
                    parts.append(f"n{nprocs}")
                reason = KNOWN_DEFECTS.get((app, variant, nprocs))
                marks = [pytest.mark.xfail(strict=True, reason=reason)] \
                    if reason else []
                out.append(pytest.param(app, variant, nprocs,
                                        id="-".join(parts), marks=marks))
    return out


@pytest.mark.parametrize("app,variant,nprocs",
                         _cases(VARIANTS, (2, 4, 8), historical=4))
def test_variant_matches_sequential(app, variant, nprocs):
    """The paper reports 8 processors; 2 and 4 catch what page-aligned
    partitions hide."""
    seq = seq_signature(app)
    res = execute(RunRequest(app, variant, nprocs=nprocs, preset="test",
                             seq_time=seq.time))
    assert res.ok
    assert signatures_close(seq.signature, res.signature, rtol=1e-6), (
        f"{app}/{variant}/{nprocs}: {res.signature} != {seq.signature}")


@pytest.mark.parametrize("app,variant,nprocs",
                         _cases(["tmk"], (3, 5), historical=3))
def test_nondivisible_processor_count(app, variant, nprocs):
    """3 and 5 processors: block remainders and cyclic wrap still correct."""
    seq = seq_signature(app)
    res = execute(RunRequest(app, variant, nprocs=nprocs, preset="test",
                             seq_time=seq.time))
    assert res.ok
    assert signatures_close(seq.signature, res.signature, rtol=1e-6)


@pytest.mark.parametrize("app", ["jacobi", "igrid"])
def test_compiled_variants_on_two_procs(app):
    seq = seq_signature(app)
    for variant in ("spf", "xhpf"):
        res = execute(RunRequest(app, variant, nprocs=2, preset="test",
                                 seq_time=seq.time))
        assert signatures_close(seq.signature, res.signature, rtol=1e-6)


@pytest.mark.parametrize("app", APPS)
def test_spf_optimized_variant_same_answer(app):
    """The paper's hand optimizations must not change results."""
    spec = get_app(app)
    if spec.spf_opt_options is None:
        pytest.skip("no hand-optimized variant in the paper")
    seq = seq_signature(app)
    res = execute(RunRequest(app, "spf_opt", nprocs=4, preset="test",
                             seq_time=seq.time))
    assert signatures_close(seq.signature, res.signature, rtol=1e-6)


@pytest.mark.parametrize("app", ["jacobi", "mgs"])
def test_spf_old_interface_same_answer(app):
    seq = seq_signature(app)
    res = execute(RunRequest(app, "spf_old", nprocs=4, preset="test",
                             seq_time=seq.time))
    assert signatures_close(seq.signature, res.signature, rtol=1e-6)


@pytest.mark.parametrize("app", APPS)
def test_variants_deterministic(app):
    a = execute(RunRequest(app, "tmk", nprocs=4, preset="test"))
    b = execute(RunRequest(app, "tmk", nprocs=4, preset="test"))
    assert a.canonical_bytes() == b.canonical_bytes()

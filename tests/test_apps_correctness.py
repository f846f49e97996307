"""Every application, every variant, against the sequential oracle.

This is the repository's central correctness statement: all four
implementation strategies of all six applications compute the same numbers
the sequential program does (within float32 chunked-summation noise), on
divisible and non-divisible processor counts.
"""

import pytest

from repro.api import RunRequest, execute
from repro.apps.common import APP_REGISTRY, get_app, signatures_close

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


# Wrong numbers with ok=True, pinned until fixed (docs/PROTOCOL.md, "Known
# defects"; fixing either moves the benchmark's golden digests).
_IGRID_TMK_2 = (
    "protocol defect on a race-free multi-writer page: p0 initialises the "
    "whole page, a mid-interval serve caches a cumulative entry (top=2, "
    "wm=1), the requester claims only wm, the next notice re-fetches with "
    "from_id=1, top > from_id re-sends the whole entry and _apply_replies "
    "patches interval-1 words over rows the requester wrote itself since")
_SHALLOW_TMK_5UP = (
    "application defect: hand_tmk.wraps() writes col_wrap_rows through raw "
    "views with no writable() call, so once a barrier notice has diffed, "
    "untwinned and invalidated a shared page (partitions not page-aligned "
    "at n >= 5) the column copies are never detected")
KNOWN_DEFECTS = {("igrid", "tmk", 2): _IGRID_TMK_2,
                 ("shallow", "tmk", 5): _SHALLOW_TMK_5UP,
                 ("shallow", "tmk", 8): _SHALLOW_TMK_5UP}


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

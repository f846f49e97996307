"""Tests for the XHPF message-passing backend (repro.compiler.xhpf)."""

import numpy as np
import pytest

from repro.api import ProgramCache, RunRequest, execute
from repro.apps import get_app
from repro.compiler import xhpf as xhpf_mod
from repro.compiler.seq import run_sequential
from repro.compiler.xhpf import compile_xhpf, run_xhpf
from repro.eval.constants import APPS
from repro.sim import Cluster
from repro.sim.machine import SP2_MODEL
from tests.conftest import (fingerprint_digest, irregular_program,
                            parallel_loops, stencil_program,
                            triangular_program)


def test_matches_sequential_stencil():
    _v, seq, _t = run_sequential(stencil_program())
    for n in (1, 2, 3, 4, 7):
        got = run_xhpf(stencil_program(), nprocs=n).scalars
        assert got["sum"] == pytest.approx(seq["sum"], rel=1e-6), f"n={n}"


def test_matches_sequential_irregular():
    _v, seq, _t = run_sequential(irregular_program())
    for n in (2, 4, 5):
        got = run_xhpf(irregular_program(), nprocs=n).scalars
        assert got["k"] == pytest.approx(seq["k"], rel=1e-12), f"n={n}"


def test_matches_sequential_triangular():
    from repro.apps.common import append_signature_loops
    views, _s, _t = run_sequential(triangular_program())
    expect = float(np.abs(views["v"]).sum(dtype=np.float64))
    prog = append_signature_loops(triangular_program(), ["v"])
    got = run_xhpf(prog, nprocs=4).scalars
    assert got["sig_v"] == pytest.approx(expect, rel=1e-5)


def test_regular_exchange_is_boundary_only():
    """Affine stencil: per loop instance each interior processor receives
    exactly its two halo lines — no broadcast-everything."""
    r = run_xhpf(stencil_program(iters=1), nprocs=4)
    # stencil loop: 6 halo messages (3 pairs x 2 directions); copy loop: 0;
    # plus 6 tiny reduce+broadcast messages for the scalar sum
    data_msgs = r.stats.by_category["data"][0]
    assert data_msgs == 12
    assert r.stats.bytes < 13000   # ~6 x 2 KB halo lines + scalar traffic


def test_irregular_loop_broadcasts_partitions():
    """Indirection triggers the broadcast-everything fallback."""
    r = run_xhpf(irregular_program(iters=2), nprocs=4)
    # per iteration: forces buffers (4x3 full-buffer messages) + pos
    # partition broadcasts (4x3) — far beyond the stencil's halo counts
    assert r.stats.by_category["data"][0] >= 2 * (12 + 12)


def test_sequential_block_executed_by_all():
    """SPMD: every processor charges the sequential block's cost."""
    from repro.compiler.ir import ArrayDecl, Program, SeqBlock

    prog = Program("p", arrays=[ArrayDecl("a", (4,))],
                   body=[SeqBlock("s", lambda v: None, cost=1.0)])
    r = run_xhpf(prog, nprocs=4)
    assert r.time >= 1.0
    assert all(t >= 1.0 for t in r.proc_times)


def test_owner_computes_alignment():
    exe = compile_xhpf(stencil_program(), nprocs=4)
    loop = next(parallel_loops(exe.program))
    lo, hi = exe.chunk(loop, 0).bounds
    olo, ohi = exe.owned_rows(exe.decls["b"], 0)
    assert (lo, hi) == (olo, ohi)


def test_row_owner_block_and_cyclic():
    exe = compile_xhpf(triangular_program(), nprocs=4)
    decl = exe.decls["v"]
    assert exe.row_owner(decl, 5) == 1       # cyclic
    exe2 = compile_xhpf(stencil_program(), nprocs=4)
    assert exe2.row_owner(exe2.decls["a"], 0) == 0


def test_segmentation_matches_packet_size():
    """Transfers above 4 KB are split (the Table 3 data/message ratio)."""
    r_seg = run_xhpf(irregular_program(m=4096, iters=1), nprocs=2)
    r_ideal = run_xhpf(irregular_program(m=4096, iters=1), nprocs=2,
                       model=SP2_MODEL.with_(mp_packet_bytes=0))
    assert r_seg.messages > r_ideal.messages
    assert r_seg.kilobytes == pytest.approx(r_ideal.kilobytes)


def test_scalars_allreduced_everywhere():
    r = run_xhpf(stencil_program(), nprocs=4)
    assert all(res == r.results[0] for res in r.results)


def test_deterministic_replay():
    a = run_xhpf(stencil_program(), nprocs=4)
    b = run_xhpf(stencil_program(), nprocs=4)
    assert (a.time, a.messages, a.kilobytes) == \
        (b.time, b.messages, b.kilobytes)


# ---------------------------------------------------------------------- #
# the communication plan: built once per executable, read by every run

def _app_exe(app, nprocs, inspector_executor=False):
    spec = get_app(app)
    return compile_xhpf(spec.build_program(spec.params("test")), nprocs,
                        inspector_executor)


@pytest.mark.parametrize("app,inspector", [("shallow", False),
                                           ("nbf", False), ("nbf", True)])
def test_plan_builds_each_distinct_statement_once(monkeypatch, app,
                                                  inspector):
    built = []
    orig = xhpf_mod.XhpfExecutable._plan_statement

    def counting(self, stmt):
        built.append(stmt)
        return orig(self, stmt)

    monkeypatch.setattr(xhpf_mod.XhpfExecutable, "_plan_statement", counting)
    exe = _app_exe(app, 4, inspector)
    assert built == []                   # compiling alone plans nothing
    Cluster(nprocs=4).run(exe.run_on)
    Cluster(nprocs=4).run(exe.run_on)
    distinct = {id(stmt): stmt for stmt in exe.schedule}
    assert len(distinct) < len(exe.schedule)      # the schedule repeats
    assert len(built) == len(distinct)
    assert {id(stmt) for stmt in built} == set(distinct)
    assert len(exe.plan) == len(exe.schedule)


@pytest.mark.parametrize("app", APPS)
def test_plan_send_and_receive_lists_partition_the_edges(app):
    n = 5
    exe = _app_exe(app, n)
    blocks = [step for step in exe.plan if step.kind == "block"]
    assert blocks
    for step in blocks:
        for pid in range(n):
            # regions by identity: a projection, not a re-derivation
            assert [(r, a, id(g)) for r, a, g in step.sends[pid]] == [
                (e[1], e[2], id(e[3])) for e in step.edges if e[0] == pid]
            assert [(o, a, id(g)) for o, a, g in step.recvs[pid]] == [
                (e[0], e[2], id(e[3])) for e in step.edges if e[1] == pid]
        assert sum(map(len, step.sends)) == len(step.edges)
        assert sum(map(len, step.recvs)) == len(step.edges)


@pytest.mark.parametrize("variant", ["xhpf", "xhpf_ie"])
@pytest.mark.parametrize("app", ["shallow", "igrid"])
def test_warm_plan_gives_the_fresh_fingerprint(app, variant):
    request = RunRequest(app, variant, 4, "test")
    cache = ProgramCache()
    cold = execute(request, cache)
    warm = execute(request, cache)
    assert warm.cache_hit
    assert warm.canonical_bytes() == cold.canonical_bytes() \
        == execute(request).canonical_bytes()


# ``fingerprint_digest`` of each ``test`` cell, computed before the plan
# was held per executable.  Any change to who sends what, when, moves
# one of them.
FINGERPRINT_DIGESTS = {
    ("jacobi", "xhpf", 1): "d9597d16a702731d",
    ("jacobi", "xhpf", 2): "d799edaf215b2774",
    ("jacobi", "xhpf", 3): "57b261e312b1e92b",
    ("jacobi", "xhpf", 5): "517f94c5465c5534",
    ("jacobi", "xhpf", 8): "ca6be6a21cc4a5cc",
    ("jacobi", "xhpf_ie", 1): "759212beb36ba2f8",
    ("jacobi", "xhpf_ie", 2): "11e98319d9b9f89e",
    ("jacobi", "xhpf_ie", 3): "e54e0615bd6871aa",
    ("jacobi", "xhpf_ie", 5): "465505d790c1c707",
    ("jacobi", "xhpf_ie", 8): "8b6f7bdb7318317c",
    ("shallow", "xhpf", 1): "7035f9e89097e416",
    ("shallow", "xhpf", 2): "3c7be7d5b28596d5",
    ("shallow", "xhpf", 3): "737a677254535b44",
    ("shallow", "xhpf", 5): "040a91e5126d581c",
    ("shallow", "xhpf", 8): "2501ccda949aaea0",
    ("shallow", "xhpf_ie", 1): "842a1927c7c3176c",
    ("shallow", "xhpf_ie", 2): "87807b803166b532",
    ("shallow", "xhpf_ie", 3): "7c9db3cd81f54914",
    ("shallow", "xhpf_ie", 5): "02b73bbb5c5cf88a",
    ("shallow", "xhpf_ie", 8): "bdcadbefcdaef1c2",
    ("mgs", "xhpf", 1): "02908156afc6ff29",
    ("mgs", "xhpf", 2): "ba5e5ac7ab3c7829",
    ("mgs", "xhpf", 3): "f332734e5f282b92",
    ("mgs", "xhpf", 5): "3076d29e87ce2708",
    ("mgs", "xhpf", 8): "2cd8b764ab853e58",
    ("mgs", "xhpf_ie", 1): "20055edf387ba154",
    ("mgs", "xhpf_ie", 2): "1c0f48f8ffdf26c3",
    ("mgs", "xhpf_ie", 3): "ad78237f89fad297",
    ("mgs", "xhpf_ie", 5): "fa0d13ce7a91c528",
    ("mgs", "xhpf_ie", 8): "bdacd85d18880f2b",
    ("fft3d", "xhpf", 1): "62b87d23d857efe3",
    ("fft3d", "xhpf", 2): "0b7c735b0070fd80",
    ("fft3d", "xhpf", 3): "134f6e0f8e96b903",
    ("fft3d", "xhpf", 5): "95dcdbf31df3e758",
    ("fft3d", "xhpf", 8): "ce4bef0fcdb3c5c8",
    ("fft3d", "xhpf_ie", 1): "7d3c7203aeea3c2e",
    ("fft3d", "xhpf_ie", 2): "824d230e5b910364",
    ("fft3d", "xhpf_ie", 3): "de9b9cc284b422c4",
    ("fft3d", "xhpf_ie", 5): "142934517841bf54",
    ("fft3d", "xhpf_ie", 8): "a235454fa98e0320",
    ("igrid", "xhpf", 1): "4a25a02782e27bbe",
    ("igrid", "xhpf", 2): "2b91ab85cc101889",
    ("igrid", "xhpf", 3): "c2df8e473863ea92",
    ("igrid", "xhpf", 5): "0dba3eefec3e2ad2",
    ("igrid", "xhpf", 8): "d9c2377be8959764",
    ("igrid", "xhpf_ie", 1): "49f8a99e2bc4ff8f",
    ("igrid", "xhpf_ie", 2): "7973a8c5a2034bdf",
    ("igrid", "xhpf_ie", 3): "576932841f9615d1",
    ("igrid", "xhpf_ie", 5): "9eada95a6008479c",
    ("igrid", "xhpf_ie", 8): "ec19999c10fec61c",
    ("nbf", "xhpf", 1): "5e5597c55af6f3e2",
    ("nbf", "xhpf", 2): "db1473d45ad08102",
    ("nbf", "xhpf", 3): "ebe695acabbd8f70",
    ("nbf", "xhpf", 5): "eac51c206eb35d95",
    ("nbf", "xhpf", 8): "e9a1b2e1d1b446d9",
    ("nbf", "xhpf_ie", 1): "7667aa307fc72564",
    ("nbf", "xhpf_ie", 2): "bdf4a14221411f5c",
    ("nbf", "xhpf_ie", 3): "3ea9bc8709c9506c",
    ("nbf", "xhpf_ie", 5): "6382afb53bfecbff",
    ("nbf", "xhpf_ie", 8): "8610b4f18bf74a0d",
}


@pytest.mark.parametrize("app,variant,n", sorted(FINGERPRINT_DIGESTS))
def test_fingerprint_digests_unchanged(app, variant, n):
    assert fingerprint_digest(app, variant, n) \
        == FINGERPRINT_DIGESTS[app, variant, n]

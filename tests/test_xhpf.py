"""Tests for the XHPF message-passing backend (repro.compiler.xhpf)."""

import numpy as np
import pytest

from repro.compiler.seq import run_sequential
from repro.compiler.xhpf import compile_xhpf, run_xhpf
from repro.sim.machine import SP2_MODEL
from tests.conftest import irregular_program, stencil_program, triangular_program


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
    loop = next(iter(exe.program.parallel_loops()))
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

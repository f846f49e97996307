"""Unit tests for the applications' numeric kernels.

Every variant of every application reuses these kernels, so each is tested
against an independent (loop-based or analytic) reference at small sizes,
plus structural properties of the synthetic inputs (IGrid's map, NBF's
partner lists) that the irregular experiments rely on.
"""

import numpy as np
import pytest

from repro.apps import fft3d, igrid, jacobi, mgs, nbf, shallow
from repro.apps.common import BLOCK_ELEMS, row_blocks


# ---------------------------------------------------------------------- #
# Jacobi

def test_jacobi_init_edges_one_interior_zero():
    u = np.empty((8, 8), np.float32)
    jacobi.init_grid(u)
    assert u[0].tolist() == [1.0] * 8
    assert u[:, -1].tolist() == [1.0] * 8
    assert u[1:-1, 1:-1].sum() == 0.0


def test_jacobi_stencil_matches_loops():
    rng = np.random.default_rng(0)
    u = rng.random((10, 12)).astype(np.float32)
    scratch = np.zeros_like(u)
    jacobi.stencil_rows(u, scratch, 0, 10)
    for i in range(1, 9):
        for j in range(1, 11):
            expect = 0.25 * (u[i - 1, j] + u[i + 1, j]
                             + u[i, j - 1] + u[i, j + 1])
            assert scratch[i, j] == pytest.approx(expect, rel=1e-6)
    assert scratch[0].sum() == 0.0          # boundary rows untouched


def test_jacobi_stencil_partial_rows_only():
    u = np.ones((10, 12), np.float32)
    scratch = np.zeros_like(u)
    jacobi.stencil_rows(u, scratch, 3, 6)
    assert scratch[3:6, 1:-1].min() == 1.0
    assert scratch[:3].sum() == 0.0 and scratch[6:].sum() == 0.0


def test_jacobi_copy_preserves_boundary():
    u = np.full((6, 6), 9.0, np.float32)
    scratch = np.zeros_like(u)
    jacobi.copy_rows(u, scratch, 0, 6)
    assert u[0, 0] == 9.0 and u[2, 0] == 9.0   # edges kept
    assert u[2, 2] == 0.0                       # interior copied


# ---------------------------------------------------------------------- #
# Shallow

def test_shallow_init_finite_and_positive_height():
    views = {name: np.zeros((32, 32), np.float32)
             for name in shallow.ALL_ARRAYS}
    shallow.init_fields(views, 32)
    assert np.isfinite(views["p"]).all()
    assert views["p"].min() > 0
    assert np.array_equal(views["uold"], views["u"])


def test_shallow_steps_stable_over_iterations():
    n = 32
    views = {name: np.zeros((n, n), np.float32)
             for name in shallow.ALL_ARRAYS}
    shallow.init_fields(views, n)
    tdt = 2.0 * shallow.DT
    for _ in range(10):
        shallow.step1_rows(views, 0, n, n)
        shallow.col_wrap_rows(views, shallow.FLUX, 0, n, n)
        shallow.row_wrap(views, shallow.FLUX, n)
        shallow.step2_rows(views, 0, n, n, tdt)
        shallow.col_wrap_rows(views, shallow.NEW, 0, n, n)
        shallow.row_wrap(views, shallow.NEW, n)
        shallow.step3_rows(views, 0, n)
    for name in ("u", "v", "p"):
        assert np.isfinite(views[name]).all(), name
    assert views["p"].min() > 0        # heights stay physical


def test_shallow_wraps_are_periodic():
    n = 16
    a = {name: np.arange(n * n, dtype=np.float32).reshape(n, n)
         for name in ("cu",)}
    shallow.row_wrap(a, ["cu"], n)
    assert np.array_equal(a["cu"][0], a["cu"][n - 2])
    assert np.array_equal(a["cu"][n - 1], a["cu"][1])
    shallow.col_wrap_rows(a, ["cu"], 0, n, n)
    assert np.array_equal(a["cu"][:, 0], a["cu"][:, n - 2])


# ---------------------------------------------------------------------- #
# MGS

def test_mgs_produces_orthonormal_basis():
    n = 48
    v = np.zeros((n, n), np.float32)
    mgs.init_vectors(v)
    for i in range(n):
        mgs.normalize_vector(v, i)
        mgs.orthogonalize_rows(v, i, np.arange(i + 1, n))
    gram = v.astype(np.float64) @ v.astype(np.float64).T
    assert np.allclose(gram, np.eye(n), atol=1e-4)


def test_mgs_init_well_conditioned():
    v = np.zeros((32, 32), np.float32)
    mgs.init_vectors(v)
    s = np.linalg.svd(v.astype(np.float64), compute_uv=False)
    assert s[-1] > 1.0       # far from singular: MGS is numerically safe


def test_mgs_orthogonalize_empty_rows_noop():
    v = np.ones((4, 4), np.float32)
    before = v.copy()
    mgs.orthogonalize_rows(v, 0, np.array([], dtype=np.int64))
    assert np.array_equal(v, before)


# ---------------------------------------------------------------------- #
# 3-D FFT

def test_fft_transpose_is_exact_permutation():
    rng = np.random.default_rng(1)
    a = rng.random((4, 6, 8)) + 1j * rng.random((4, 6, 8))
    b = np.zeros((6, 4, 8), np.complex128)
    fft3d.transpose_rows(a, b, 0, 6)
    for j in range(6):
        for k in range(4):
            assert np.array_equal(b[j, k], a[k, j])


def test_fft_forward_then_inverse_roundtrip():
    n3, n2, n1 = 4, 8, 8
    a = np.zeros((n3, n2, n1), np.complex128)
    fft3d.evolve_rows(a, 0, n3, t=0)
    orig = a.copy()
    fft3d.fft_dim2_rows(a, 0, n3)
    a[:] = np.fft.ifft(a, axis=2)
    assert np.allclose(a, orig, atol=1e-12)


def test_fft_checksum_partition_sums_to_whole():
    rng = np.random.default_rng(2)
    b = (rng.random((8, 4, 8)) + 1j * rng.random((8, 4, 8)))
    whole = fft3d.checksum_rows(b, 0, 8)
    parts = sum(fft3d.checksum_rows(b, lo, lo + 2) for lo in range(0, 8, 2))
    assert whole == pytest.approx(parts, rel=1e-12)


def test_fft_normalize_scales_by_size():
    b = np.ones((4, 4, 4), np.complex128)
    fft3d.normalize_rows(b, 0, 4)
    assert b[0, 0, 0] == pytest.approx(1.0 / 64)


# ---------------------------------------------------------------------- #
# IGrid

def test_igrid_map_points_at_neighbours():
    n = 10
    imap = igrid.build_map(n)
    assert imap.shape == (n, n, 9)
    # interior cell (5, 5): the 9-point neighbourhood
    expect = sorted((5 + di) * n + (5 + dj)
                    for di in (-1, 0, 1) for dj in (-1, 0, 1))
    assert sorted(imap[5, 5].tolist()) == expect
    # corners clamp instead of wrapping
    assert imap[0, 0].min() >= 0
    assert (imap[0, 0] < n * n).all()


def test_igrid_update_matches_direct_stencil():
    n = 12
    rng = np.random.default_rng(3)
    old = rng.random((n, n)).astype(np.float32)
    new = np.zeros_like(old)
    imap = igrid.build_map(n)
    igrid.update_rows(old, new, imap, 0, n)
    i, j = 6, 7
    neigh = old[i - 1:i + 2, j - 1:j + 2].reshape(-1)
    w = igrid.WEIGHTS.reshape(3, 3).reshape(-1)
    # build_map orders di-major, matching WEIGHTS
    assert new[i, j] == pytest.approx(float(neigh @ w), rel=1e-5)


def test_igrid_weights_sum_to_one():
    assert float(igrid.WEIGHTS.sum()) == pytest.approx(1.0)


def test_igrid_square_stats_partition_consistent():
    n = 48
    g = np.random.default_rng(4).random((n, n)).astype(np.float32)
    whole = igrid.square_stats_rows(g, n, 0, n)
    parts = [igrid.square_stats_rows(g, n, lo, lo + 12)
             for lo in range(0, n, 12)]
    assert whole["gmax"] == max(p["gmax"] for p in parts)
    assert whole["gmin"] == min(p["gmin"] for p in parts)
    assert whole["gsum"] == pytest.approx(sum(p["gsum"] for p in parts))


def test_igrid_touched_indices_are_chunk_neighbourhood():
    n = 16
    imap = igrid.build_map(n)
    touched = igrid.touched_indices(imap, 4, 8)
    rows = np.unique(touched // n)
    assert rows.min() == 3 and rows.max() == 8   # chunk rows +- 1


# ---------------------------------------------------------------------- #
# NBF

def test_nbf_partners_windowed_and_sorted():
    n, P, W = 256, 8, 16
    prt = nbf.build_partners(n, P, W)
    assert prt.shape == (n, P)
    idx = np.arange(n)[:, None]
    ahead = prt - idx
    # partners are self (padding) or within (0, W]
    assert ((ahead == 0) | ((ahead >= 1) & (ahead <= W))).all()
    assert (np.diff(prt.astype(int), axis=1) >= 0).all()


def test_nbf_pair_forces_newton_third_law():
    """Total force sums to ~zero: every pair contributes +f and -f."""
    n = 64
    pos = np.zeros((n, 3), np.float32)
    nbf.init_positions(pos)
    prt = nbf.build_partners(n, 8, 16)
    forces = np.zeros((n, 3), np.float32)
    nbf.pair_forces_rows(pos, prt, forces, 0, n)
    assert np.abs(forces.sum(axis=0)).max() < 1e-3
    assert np.abs(forces).sum() > 0


def test_nbf_chunked_forces_equal_whole():
    n = 64
    pos = np.zeros((n, 3), np.float32)
    nbf.init_positions(pos)
    prt = nbf.build_partners(n, 8, 16)
    whole = np.zeros((n, 3), np.float32)
    nbf.pair_forces_rows(pos, prt, whole, 0, n)
    parts = np.zeros((n, 3), np.float32)
    for lo in range(0, n, 16):
        nbf.pair_forces_rows(pos, prt, parts, lo, lo + 16)
    assert np.allclose(parts, whole, atol=1e-5)


def test_nbf_update_bounded():
    n = 128
    pos = np.zeros((n, 3), np.float32)
    nbf.init_positions(pos)
    prt = nbf.build_partners(n, 8, 16)
    for _ in range(10):
        forces = np.zeros((n, 3), np.float32)
        nbf.pair_forces_rows(pos, prt, forces, 0, n)
        nbf.update_rows(pos, forces, 0, n)
    assert np.isfinite(pos).all()


def test_nbf_touched_rows_cover_chunk_and_partners():
    n = 128
    prt = nbf.build_partners(n, 4, 8)
    touched = nbf.touched_rows(prt, 32, 48)
    assert set(range(32, 48)) <= set(touched.tolist())
    assert touched.max() <= 48 + 8 - 1 + 1   # within the window reach


# ---------------------------------------------------------------------- #
# Blocked kernels: byte for byte what the whole-range formulas wrote
#
# The bench-size kernels of shallow, fft3d and igrid walk their rows with
# ``row_blocks``.  Below are frozen copies of the whole-range formulas
# they replaced; every array either writes is compared on its uint8 view,
# so a changed rounding, signed zero or NaN payload fails, not only a
# changed value.

def _same_bytes(x, y):
    return (x.dtype == y.dtype and x.shape == y.shape
            and np.array_equal(np.ascontiguousarray(x).view(np.uint8),
                               np.ascontiguousarray(y).view(np.uint8)))


def _frozen_step1(a, lo, hi, n):
    lo, hi = max(lo, 1), min(hi, n - 1)
    if hi <= lo:
        return
    fsdx, fsdy = 4.0 / shallow.DX, 4.0 / shallow.DY
    u, v, p = a["u"], a["v"], a["p"]
    i, im1, ip1 = slice(lo, hi), slice(lo - 1, hi - 1), slice(lo + 1, hi + 1)
    j, jm1, jp1 = slice(1, n - 1), slice(0, n - 2), slice(2, n)
    a["cu"][i, j] = 0.5 * (p[i, j] + p[im1, j]) * u[i, j]
    a["cv"][i, j] = 0.5 * (p[i, j] + p[i, jm1]) * v[i, j]
    a["z"][i, j] = ((fsdx * (v[i, j] - v[im1, j])
                     - fsdy * (u[i, j] - u[i, jm1]))
                    / (p[im1, jm1] + p[i, jm1] + p[im1, j] + p[i, j]))
    a["h"][i, j] = p[i, j] + 0.25 * (u[ip1, j] ** 2 + u[i, j] ** 2
                                     + v[i, jp1] ** 2 + v[i, j] ** 2)


def _frozen_step2(a, lo, hi, n, tdt):
    lo, hi = max(lo, 1), min(hi, n - 1)
    if hi <= lo:
        return
    tdts8 = tdt / 8.0
    tdtsdx, tdtsdy = tdt / shallow.DX, tdt / shallow.DY
    cu, cv, z, h = a["cu"], a["cv"], a["z"], a["h"]
    i, im1, ip1 = slice(lo, hi), slice(lo - 1, hi - 1), slice(lo + 1, hi + 1)
    j, jm1, jp1 = slice(1, n - 1), slice(0, n - 2), slice(2, n)
    a["unew"][i, j] = (a["uold"][i, j]
                       + tdts8 * (z[i, jp1] + z[i, j])
                       * (cv[i, jp1] + cv[im1, jp1] + cv[im1, j] + cv[i, j])
                       - tdtsdx * (h[i, j] - h[im1, j]))
    a["vnew"][i, j] = (a["vold"][i, j]
                       - tdts8 * (z[ip1, j] + z[i, j])
                       * (cu[ip1, j] + cu[ip1, jm1] + cu[i, jm1] + cu[i, j])
                       - tdtsdy * (h[i, j] - h[i, jm1]))
    a["pnew"][i, j] = (a["pold"][i, j]
                       - tdtsdx * (cu[ip1, j] - cu[i, j])
                       - tdtsdy * (cv[i, jp1] - cv[i, j]))


def _frozen_step3(a, lo, hi):
    i = slice(lo, hi)
    for s, nw, od in zip(shallow.STATE, shallow.NEW, shallow.OLD):
        a[od][i] = (a[s][i]
                    + shallow.ALPHA * (a[nw][i] - 2.0 * a[s][i] + a[od][i]))
        a[s][i] = a[nw][i]


def _frozen_evolve(a, lo, hi, t):
    n3, n2, n1 = a.shape
    k = np.arange(lo, hi, dtype=np.float64)[:, None, None]
    j = np.arange(n2, dtype=np.float64)[None, :, None]
    i = np.arange(n1, dtype=np.float64)[None, None, :]
    phase = (0.7 * k + 1.3 * j + 2.1 * i) * (1.0 + 0.05 * t)
    decay = np.exp(-1e-4 * t * (k + j + i))
    a[lo:hi] = (decay * (np.cos(phase) + 1j * np.sin(phase))).astype(a.dtype)


def _frozen_fft_dim2(a, lo, hi):
    a[lo:hi] = np.fft.fft(a[lo:hi], axis=2).astype(a.dtype)


def _frozen_fft_dim1(a, lo, hi):
    a[lo:hi] = np.fft.fft(a[lo:hi], axis=1).astype(a.dtype)


def _frozen_inv_fft_dim1(b, lo, hi):
    b[lo:hi] = np.fft.ifft(b[lo:hi], axis=1).astype(b.dtype)


def _frozen_build_map(n):
    i = np.arange(n)
    ii, jj = np.meshgrid(i, i, indexing="ij")
    nbrs = []
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            ni = np.clip(ii + di, 0, n - 1)
            nj = np.clip(jj + dj, 0, n - 1)
            nbrs.append(ni * n + nj)
    return np.stack(nbrs, axis=-1).astype(np.int32)


def _shallow_state(n, t):
    """All 13 arrays after ``t`` frozen iterations, plus per-row noise so
    no two rows (or blocks) hold the same values."""
    a = {name: np.zeros((n, n), np.float32) for name in shallow.ALL_ARRAYS}
    shallow.init_fields(a, n)
    tdt = 2.0 * shallow.DT
    for _ in range(t):
        _frozen_step1(a, 0, n, n)
        shallow.col_wrap_rows(a, shallow.FLUX, 0, n, n)
        shallow.row_wrap(a, shallow.FLUX, n)
        _frozen_step2(a, 0, n, n, tdt)
        shallow.col_wrap_rows(a, shallow.NEW, 0, n, n)
        shallow.row_wrap(a, shallow.NEW, n)
        _frozen_step3(a, 0, n)
    rng = np.random.default_rng(n + t)
    for name, arr in a.items():
        scale = 1e-3 * (float(np.abs(arr).max()) or 1.0)
        arr += rng.standard_normal(arr.shape).astype(np.float32) * scale
    return a


# chunk bounds: whole range, clamped rows 0 and n-1 alone, and bounds that
# straddle the 64-row block edges of n = 1024
SHALLOW_CHUNKS = {64: [(0, 64), (0, 1), (63, 64), (5, 40)],
                  1024: [(0, 1), (1023, 1024), (37, 700), (500, 1024)]}


@pytest.mark.parametrize("n", [64, 1024])
@pytest.mark.parametrize("t", [0, 3])
def test_shallow_blocked_steps_write_the_same_bytes(n, t):
    base = _shallow_state(n, t)
    tdt = 2.0 * shallow.DT
    kernels = [
        (_frozen_step1, lambda a, lo, hi: shallow.step1_rows(a, lo, hi, n),
         (n,)),
        (_frozen_step2,
         lambda a, lo, hi: shallow.step2_rows(a, lo, hi, n, tdt), (n, tdt)),
        (_frozen_step3, shallow.step3_rows, ()),
    ]
    for frozen, blocked, extra in kernels:
        for lo, hi in SHALLOW_CHUNKS[n]:
            want = {k: v.copy() for k, v in base.items()}
            got = {k: v.copy() for k, v in base.items()}
            frozen(want, lo, hi, *extra)
            blocked(got, lo, hi)
            for name in shallow.ALL_ARRAYS:
                assert _same_bytes(want[name], got[name]), \
                    (frozen.__name__, lo, hi, name)


FFT_SHAPES = {"test": ((8, 16, 16), [(0, 8), (1, 5)], [(0, 16), (3, 11)]),
              "bench": ((64, 128, 128), [(0, 64), (0, 32), (3, 29)],
                        [(0, 128), (0, 64), (5, 77)])}


@pytest.mark.parametrize("preset", ["test", "bench"])
@pytest.mark.parametrize("t", [0, 3])
def test_fft3d_blocked_kernels_write_the_same_bytes(preset, t):
    shape, a_chunks, b_chunks = FFT_SHAPES[preset]
    n3, n2, n1 = shape
    base = np.full(shape, 7.0 + 7.0j)
    for lo, hi in a_chunks:
        want, got = base.copy(), base.copy()
        _frozen_evolve(want, lo, hi, t)
        fft3d.evolve_rows(got, lo, hi, t)
        assert _same_bytes(want, got), ("evolve", lo, hi)
    _frozen_evolve(base, 0, n3, t)
    for frozen, blocked in ((_frozen_fft_dim2, fft3d.fft_dim2_rows),
                            (_frozen_fft_dim1, fft3d.fft_dim1_rows)):
        for lo, hi in a_chunks:
            want, got = base.copy(), base.copy()
            frozen(want, lo, hi)
            blocked(got, lo, hi)
            assert _same_bytes(want, got), (frozen.__name__, lo, hi)
    b = np.empty((n2, n3, n1), np.complex128)
    fft3d.transpose_rows(base, b, 0, n2)
    for lo, hi in b_chunks:
        want, got = b.copy(), b.copy()
        _frozen_inv_fft_dim1(want, lo, hi)
        fft3d.inv_fft_dim1_rows(got, lo, hi)
        assert _same_bytes(want, got), ("inv_fft_dim1", lo, hi)


@pytest.mark.parametrize("n", [1, 2, 3, 48, 500])
def test_igrid_build_map_same_bytes(n):
    got = igrid.build_map(n)
    assert _same_bytes(_frozen_build_map(n), got)
    assert got.flags.c_contiguous


# ---------------------------------------------------------------------- #
# row_blocks

def _rows_per_block(row_elems):
    return max(1, BLOCK_ELEMS // row_elems)


@pytest.mark.parametrize("lo,hi", [(0, 0), (5, 5), (9, 3)])
def test_row_blocks_empty_range(lo, hi):
    assert list(row_blocks(lo, hi, 1024)) == []


def test_row_blocks_short_range_is_one_block():
    assert list(row_blocks(3, 10, 1024)) == [(3, 10)]
    # every test-preset range is a single block
    assert list(row_blocks(0, 64, 64)) == [(0, 64)]


def test_row_blocks_partial_last_block():
    step = _rows_per_block(1024)
    assert step == 64
    assert list(row_blocks(1, 150, 1024)) == [(1, 65), (65, 129),
                                              (129, 150)]


def test_row_blocks_rows_wider_than_a_block():
    assert list(row_blocks(2, 5, 4 * BLOCK_ELEMS)) == [(2, 3), (3, 4), (4, 5)]


@pytest.mark.parametrize("lo,hi,row_elems", [(0, 1024, 1022), (1, 1023, 1024),
                                             (0, 64, 16384), (5, 77, 8192),
                                             (0, 500, 4500), (17, 18, 1)])
def test_row_blocks_cover_exactly_without_overlap(lo, hi, row_elems):
    blocks = list(row_blocks(lo, hi, row_elems))
    assert blocks[0][0] == lo and blocks[-1][1] == hi
    for (_, end), (start, _) in zip(blocks, blocks[1:]):
        assert end == start                    # contiguous, no overlap
    for blo, bhi in blocks:
        assert 0 < bhi - blo <= _rows_per_block(row_elems)
        assert (bhi - blo) * row_elems <= max(BLOCK_ELEMS, row_elems)

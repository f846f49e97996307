"""3-D FFT: the NAS benchmark kernel (FT).

Section 5.4 of the paper.  The solver numerically integrates a PDE by
3-dimensional forward/inverse FFTs.  Per iteration: the complex array is
reinitialized (the "evolve" step), 1-D FFTs run along the two contiguous
dimensions on the initial block partition, a **transpose** repartitions the
array for the third dimension's FFTs, the result is normalized, and a
checksum sums 1024 sampled elements.

The transpose is where the variants separate: hand-coded message passing
moves each processor-pair's block in one large message (an all-to-all),
while the shared-memory versions fault the data in "one page at a time",
costing ~30x the messages (the paper's words).  The hand-coded TreadMarks
program uses exactly two barriers per iteration — after the transpose and
after the checksum.

Layout: ``a`` is (n3, n2, n1) C-order, block on dim 0; the transpose fills
``b`` (n2, n3, n1), block on dim 0.
"""

from __future__ import annotations

import numpy as np

from repro.apps.common import (AppSpec, abs_sum,
                               append_signature_loops, register)
from repro.compiler.ir import (Access, ArrayDecl, Full, Mark, ParallelLoop,
                               Program, Reduction, Span, TimeLoop)
from repro.compiler.spf import SpfOptions

__all__ = ["SPEC", "build_program", "hand_tmk", "hand_pvme"]

# 37.7 s sequential for 5 timed iterations at 128x128x64 (Table 1).
# Work per iteration: reinit + 3 x (1M points of 1-D FFTs) + normalize +
# checksum; FFT cost modelled as c * L*log2(L) per L-point transform.
# (complex-double FFTs ran at only a few MFLOPS on these machines)
FFT_COST = 320e-9          # per point*log2(L)
INIT_COST = 650e-9         # per point (evolve: exponential factors)
NORM_COST = 60e-9          # per point
CHECKSUM_SAMPLES = 1024

PRESETS = {
    "paper": dict(n1=128, n2=128, n3=64, iters=5, warmup=1),
    "bench": dict(n1=128, n2=128, n3=64, iters=3, warmup=1),
    "test": dict(n1=16, n2=16, n3=8, iters=2, warmup=1),
}


# ---------------------------------------------------------------------- #
# kernels

def evolve_rows(a: np.ndarray, lo: int, hi: int, t: int) -> None:
    """Reinitialize slabs [lo, hi): deterministic pseudo-data evolved by t."""
    n3, n2, n1 = a.shape
    k = np.arange(lo, hi, dtype=np.float64)[:, None, None]
    j = np.arange(n2, dtype=np.float64)[None, :, None]
    i = np.arange(n1, dtype=np.float64)[None, None, :]
    phase = (0.7 * k + 1.3 * j + 2.1 * i) * (1.0 + 0.05 * t)
    decay = np.exp(-1e-4 * t * (k + j + i))
    a[lo:hi] = (decay * (np.cos(phase) + 1j * np.sin(phase))).astype(a.dtype)


def fft_dim2_rows(a: np.ndarray, lo: int, hi: int) -> None:
    """1-D FFT along axis 2 (contiguous) for slabs [lo, hi)."""
    a[lo:hi] = np.fft.fft(a[lo:hi], axis=2).astype(a.dtype)


def fft_dim1_rows(a: np.ndarray, lo: int, hi: int) -> None:
    """1-D FFT along axis 1 for slabs [lo, hi)."""
    a[lo:hi] = np.fft.fft(a[lo:hi], axis=1).astype(a.dtype)


def transpose_rows(a: np.ndarray, b: np.ndarray, lo: int, hi: int) -> None:
    """b[j, k, :] = a[k, j, :] for j in [lo, hi) — the repartition."""
    b[lo:hi] = a[:, lo:hi, :].transpose(1, 0, 2)


def inv_fft_dim1_rows(b: np.ndarray, lo: int, hi: int) -> None:
    """Inverse 1-D FFT along axis 1 (the n3 dimension) for rows [lo, hi)."""
    b[lo:hi] = np.fft.ifft(b[lo:hi], axis=1).astype(b.dtype)


def normalize_rows(b: np.ndarray, lo: int, hi: int) -> None:
    ntotal = b.size
    b[lo:hi] *= 1.0 / ntotal


def checksum_rows(b: np.ndarray, lo: int, hi: int) -> complex:
    """Sum of the sampled elements whose flat index lands in rows [lo, hi)."""
    n2, n3, n1 = b.shape
    total = n2 * n3 * n1
    samples = (np.arange(CHECKSUM_SAMPLES, dtype=np.int64)
               * 1099) % total
    rows = samples // (n3 * n1)
    mine = samples[(rows >= lo) & (rows < hi)]
    if mine.size == 0:
        return 0.0 + 0.0j
    vals = b.reshape(-1)[mine]
    return complex(vals.sum())


def fft_cost(points: int, length: int) -> float:
    return FFT_COST * points * np.log2(max(length, 2))


# ---------------------------------------------------------------------- #
# IR description

def build_program(params: dict) -> Program:
    n1, n2, n3 = params["n1"], params["n2"], params["n3"]
    iters, warmup = params["iters"], params["warmup"]

    def iteration(t: int) -> list:
        def evolve_kernel(views, lo, hi, _t=t):
            evolve_rows(views["a"], lo, hi, _t)

        def fft2_kernel(views, lo, hi):
            fft_dim2_rows(views["a"], lo, hi)

        def fft1_kernel(views, lo, hi):
            fft_dim1_rows(views["a"], lo, hi)

        def transpose_kernel(views, lo, hi):
            transpose_rows(views["a"], views["b"], lo, hi)

        def fft3_kernel(views, lo, hi):
            inv_fft_dim1_rows(views["b"], lo, hi)

        def normalize_kernel(views, lo, hi):
            normalize_rows(views["b"], lo, hi)

        def checksum_kernel(views, lo, hi):
            c = checksum_rows(views["b"], lo, hi)
            return {"checksum_re": c.real, "checksum_im": c.imag}

        return [
            ParallelLoop("evolve", n3, evolve_kernel,
                         writes=[Access("a", (Span(), Full(), Full()))],
                         align=("a", 0), cost_per_iter=INIT_COST * n2 * n1),
            ParallelLoop("fft-n1", n3, fft2_kernel,
                         reads=[Access("a", (Span(), Full(), Full()))],
                         writes=[Access("a", (Span(), Full(), Full()))],
                         align=("a", 0),
                         cost_per_iter=fft_cost(n2 * n1, n1)),
            ParallelLoop("fft-n2", n3, fft1_kernel,
                         reads=[Access("a", (Span(), Full(), Full()))],
                         writes=[Access("a", (Span(), Full(), Full()))],
                         align=("a", 0),
                         cost_per_iter=fft_cost(n2 * n1, n2)),
            ParallelLoop("transpose", n2, transpose_kernel,
                         reads=[Access("a", (Full(), Span(), Full()))],
                         writes=[Access("b", (Span(), Full(), Full()))],
                         align=("b", 0),
                         cost_per_iter=12e-9 * n3 * n1),
            ParallelLoop("fft-n3", n2, fft3_kernel,
                         reads=[Access("b", (Span(), Full(), Full()))],
                         writes=[Access("b", (Span(), Full(), Full()))],
                         align=("b", 0),
                         cost_per_iter=fft_cost(n3 * n1, n3)),
            ParallelLoop("normalize", n2, normalize_kernel,
                         reads=[Access("b", (Span(), Full(), Full()))],
                         writes=[Access("b", (Span(), Full(), Full()))],
                         align=("b", 0), cost_per_iter=NORM_COST * n3 * n1),
            ParallelLoop("checksum", n2, checksum_kernel,
                         reads=[Access("b", (Span(), Full(), Full()))],
                         reductions=[Reduction("checksum_re"),
                                     Reduction("checksum_im")],
                         align=("b", 0), cost_per_iter=3e-9 * n3 * n1),
        ]

    program = Program(
        name="fft3d",
        arrays=[ArrayDecl("a", (n3, n2, n1), np.complex128, distribute=0),
                ArrayDecl("b", (n2, n3, n1), np.complex128, distribute=0)],
        body=[TimeLoop("warmup", warmup, iteration),
              Mark("start"),
              TimeLoop("iterations", iters,
                       lambda t, _w=warmup: iteration(t + _w)),
              Mark("stop")],
        params=dict(params),
    )
    return append_signature_loops(program, ["b"])


# ---------------------------------------------------------------------- #
# hand-coded TreadMarks: two barriers per iteration

def hand_tmk_setup(space, params: dict) -> None:
    n1, n2, n3 = params["n1"], params["n2"], params["n3"]
    space.alloc("a", (n3, n2, n1), np.complex128)
    space.alloc("b", (n2, n3, n1), np.complex128)


def hand_tmk(tmk, params: dict):
    n1, n2, n3 = params["n1"], params["n2"], params["n3"]
    iters, warmup = params["iters"], params["warmup"]
    a, b = tmk.array("a"), tmk.array("b")
    araw, braw = a.raw(), b.raw()
    alo, ahi = tmk.block_range(n3)
    blo, bhi = tmk.block_range(n2)
    checksum = [0.0, 0.0]

    def one_iteration(t: int):
        steps = a.writable_steps((slice(alo, ahi),))
        if steps is not None:
            yield from steps
        evolve_rows(araw, alo, ahi, t)
        yield from tmk.compute_gen(INIT_COST * n2 * n1 * (ahi - alo))
        fft_dim2_rows(araw, alo, ahi)
        yield from tmk.compute_gen(fft_cost(n2 * n1, n1) * (ahi - alo))
        fft_dim1_rows(araw, alo, ahi)
        yield from tmk.compute_gen(fft_cost(n2 * n1, n2) * (ahi - alo))
        yield from tmk.barrier_gen()         # before reading others' slabs
        steps = a.read_steps((slice(None), slice(blo, bhi), slice(None)))
        if steps is not None:
            yield from steps
        steps = b.writable_steps((slice(blo, bhi),))
        if steps is not None:
            yield from steps
        transpose_rows(araw, braw, blo, bhi)
        yield from tmk.compute_gen(12e-9 * n3 * n1 * (bhi - blo))
        inv_fft_dim1_rows(braw, blo, bhi)
        yield from tmk.compute_gen(fft_cost(n3 * n1, n3) * (bhi - blo))
        steps = b.writable_steps((slice(blo, bhi),))
        if steps is not None:
            yield from steps
        normalize_rows(braw, blo, bhi)
        yield from tmk.compute_gen(NORM_COST * n3 * n1 * (bhi - blo))
        c = checksum_rows(braw, blo, bhi)
        yield from tmk.compute_gen(3e-9 * n3 * n1 * (bhi - blo))
        checksum[0], checksum[1] = c.real, c.imag
        yield from tmk.barrier_gen()         # after the checksum

    for t in range(warmup):
        yield from one_iteration(t)
    tmk.env.mark("start")
    for t in range(iters):
        yield from one_iteration(t + warmup)
    tmk.env.mark("stop")
    sig = {"sig_b": abs_sum(braw[blo:bhi])}
    sig["checksum_re"] = checksum[0]
    sig["checksum_im"] = checksum[1]
    return sig


# ---------------------------------------------------------------------- #
# hand-coded PVMe: all-to-all transpose in big messages

TAG_TRANSPOSE = 30


def hand_pvme(p, params: dict):
    n1, n2, n3 = params["n1"], params["n2"], params["n3"]
    iters, warmup = params["iters"], params["warmup"]
    a = np.zeros((n3, n2, n1), np.complex128)
    b = np.zeros((n2, n3, n1), np.complex128)
    alo, ahi = p.block_range(n3)
    blo, bhi = p.block_range(n2)
    bounds = [None] * p.ntasks
    for q in range(p.ntasks):
        base, rem = divmod(n2, p.ntasks)
        qlo = q * base + min(q, rem)
        bounds[q] = (qlo, qlo + base + (1 if q < rem else 0))
    checksum = [0.0, 0.0]

    def one_iteration(t: int):
        evolve_rows(a, alo, ahi, t)
        yield from p.compute_gen(INIT_COST * n2 * n1 * (ahi - alo))
        fft_dim2_rows(a, alo, ahi)
        yield from p.compute_gen(fft_cost(n2 * n1, n1) * (ahi - alo))
        fft_dim1_rows(a, alo, ahi)
        yield from p.compute_gen(fft_cost(n2 * n1, n2) * (ahi - alo))
        # transpose: one large message per processor pair
        blocks = [np.ascontiguousarray(a[alo:ahi, qlo:qhi, :])
                  for (qlo, qhi) in bounds]
        out = yield from p.alltoall_gen(blocks)
        # out[q] is a[q's slab rows, my b-columns, :]
        k0 = 0
        for q, block in enumerate(out):
            rows = block.shape[0]
            b[blo:bhi, k0:k0 + rows, :] = block.transpose(1, 0, 2)
            k0 += rows
        yield from p.compute_gen(12e-9 * n3 * n1 * (bhi - blo))
        inv_fft_dim1_rows(b, blo, bhi)
        yield from p.compute_gen(fft_cost(n3 * n1, n3) * (bhi - blo))
        normalize_rows(b, blo, bhi)
        yield from p.compute_gen(NORM_COST * n3 * n1 * (bhi - blo))
        c = checksum_rows(b, blo, bhi)
        yield from p.compute_gen(3e-9 * n3 * n1 * (bhi - blo))
        total = yield from p.allreduce_gen(complex(c), lambda x, y: x + y)
        checksum[0], checksum[1] = total.real, total.imag

    for t in range(warmup):
        yield from one_iteration(t)
    p.env.mark("start")
    for t in range(iters):
        yield from one_iteration(t + warmup)
    p.env.mark("stop")
    sig = {"sig_b": abs_sum(b[blo:bhi])}
    if p.tid == 0:
        sig["checksum_re"] = checksum[0]
        sig["checksum_im"] = checksum[1]
    return sig


SPEC = register(AppSpec(
    name="fft3d",
    regular=True,
    build_program=build_program,
    hand_tmk_setup=hand_tmk_setup,
    hand_tmk=hand_tmk,
    hand_pvme=hand_pvme,
    presets=PRESETS,
    signature_arrays=["b"],
    spf_opt_options=lambda: SpfOptions(aggregate=True, fuse_loops=True),
    notes="Section 5.4; hand optimization = data aggregation",
))

"""Jacobi: iterative method for solving partial differential equations.

Section 5.1 of the paper.  Two arrays — data and scratch — and two parallel
phases per iteration: a four-point stencil into the scratch array, then a
copy back to the data array.  The data array is "initialized with ones on
the edges and zeroes in the interior"; nearest-neighbour communication
exchanges partition-boundary lines each iteration.  The paper's Fortran is
column-major and partitions by column; this C-order implementation
partitions by row, which is the identical memory pattern.

Variant notes (from the paper):

* SPF also allocates the *scratch* array in shared memory because it is
  accessed in a parallel loop — worth ~2% versus hand-coded TreadMarks,
  which keeps scratch private (exactly what :func:`hand_tmk` does);
* message passing wins mainly through data aggregation (a boundary line is
  one message; TreadMarks needs two faults x two messages for the same
  line) and merged synchronization;
* TreadMarks moves far *less data* because only modified words travel as
  diffs, and Jacobi's interior stays zero until the boundary wave reaches
  it (Table 2: 862 KB vs 11,469 KB).
"""

from __future__ import annotations

import numpy as np

from repro.apps.common import (AppSpec, append_signature_loops,
                               partial_signature, register)
from repro.compiler.ir import (Access, ArrayDecl, Full, Mark, ParallelLoop,
                               Program, SeqBlock, Span, TimeLoop)
from repro.compiler.spf import SpfOptions

__all__ = ["SPEC", "build_program", "hand_tmk", "hand_pvme"]

# Per-element virtual compute costs, calibrated so the paper-size problem
# (2048^2 x 100 iterations) runs ~55 s sequentially (Table 1 row estimated;
# see eval/constants.py).
STENCIL_COST = 95e-9
COPY_COST = 36e-9

PRESETS = {
    "paper": dict(n=2048, iters=100, warmup=1),
    "bench": dict(n=2048, iters=12, warmup=1),
    "test": dict(n=64, iters=3, warmup=1),
    # the machine-model ablation (repro reproduce's ext_sensitivity)
    "sensitivity": dict(n=1024, iters=6, warmup=1),
}


# ---------------------------------------------------------------------- #
# kernels (shared by every variant)

def init_grid(u: np.ndarray) -> None:
    u[...] = 0.0
    u[0, :] = 1.0
    u[-1, :] = 1.0
    u[:, 0] = 1.0
    u[:, -1] = 1.0


def stencil_rows(u: np.ndarray, scratch: np.ndarray, lo: int, hi: int) -> None:
    """Four-point stencil into scratch for interior rows of [lo, hi)."""
    n = u.shape[0]
    lo, hi = max(lo, 1), min(hi, n - 1)
    if hi <= lo:
        return
    src = u[lo - 1:hi + 1]
    scratch[lo:hi, 1:-1] = 0.25 * (src[:-2, 1:-1] + src[2:, 1:-1]
                                   + src[1:-1, :-2] + src[1:-1, 2:])


def copy_rows(u: np.ndarray, scratch: np.ndarray, lo: int, hi: int) -> None:
    n = u.shape[0]
    lo, hi = max(lo, 1), min(hi, n - 1)
    if hi > lo:
        u[lo:hi, 1:-1] = scratch[lo:hi, 1:-1]


# ---------------------------------------------------------------------- #
# IR description (consumed by SPF, XHPF and the sequential oracle)

def build_program(params: dict) -> Program:
    n, iters, warmup = params["n"], params["iters"], params["warmup"]

    def init_kernel(views):
        init_grid(views["u"])

    def stencil_kernel(views, lo, hi):
        stencil_rows(views["u"], views["scratch"], lo, hi)

    def copy_kernel(views, lo, hi):
        copy_rows(views["u"], views["scratch"], lo, hi)

    iteration = [
        ParallelLoop("stencil", n, stencil_kernel,
                     reads=[Access("u", (Span(-1, 1), Full()))],
                     writes=[Access("scratch", (Span(), Full()))],
                     align=("scratch", 0),
                     cost_per_iter=STENCIL_COST * n),
        ParallelLoop("copy", n, copy_kernel,
                     reads=[Access("scratch", (Span(), Full()))],
                     writes=[Access("u", (Span(), Full()))],
                     align=("u", 0),
                     cost_per_iter=COPY_COST * n),
    ]
    program = Program(
        name="jacobi",
        arrays=[ArrayDecl("u", (n, n), np.float32, distribute=0),
                ArrayDecl("scratch", (n, n), np.float32, distribute=0)],
        body=[SeqBlock("init", init_kernel,
                       writes=[Access("u", (Full(), Full()))],
                       cost=2e-9 * n * n),
              TimeLoop("warmup", warmup, iteration),
              Mark("start"),
              TimeLoop("iterations", iters, iteration),
              Mark("stop")],
        params=dict(params),
    )
    return append_signature_loops(program, ["u", "scratch"])


# ---------------------------------------------------------------------- #
# hand-coded TreadMarks: scratch is private, plain barriers

def hand_tmk_setup(space, params: dict) -> None:
    n = params["n"]
    space.alloc("u", (n, n), np.float32)


def hand_tmk(tmk, params: dict):
    n, iters, warmup = params["n"], params["iters"], params["warmup"]
    u = tmk.array("u")
    lo, hi = tmk.block_range(n)
    scratch = np.zeros((n, n), dtype=np.float32)   # private scratch array

    if tmk.pid == 0:
        steps = u.writable_steps()
        if steps is not None:
            yield from steps
        init_grid(u.raw())
        yield from tmk.compute_gen(2e-9 * n * n)
    yield from tmk.barrier_gen()

    def one_iteration():
        rlo, rhi = max(lo, 1), min(hi, n - 1)
        steps = u.read_steps((slice(rlo - 1, rhi + 1), slice(None)))
        if steps is not None:
            yield from steps
        stencil_rows(u.raw(), scratch, lo, hi)
        yield from tmk.compute_gen(STENCIL_COST * n * (hi - lo))
        yield from tmk.barrier_gen()        # anti-dependence between phases
        if rhi > rlo:
            steps = u.writable_steps((slice(rlo, rhi), slice(None)))
            if steps is not None:
                yield from steps
        copy_rows(u.raw(), scratch, lo, hi)
        yield from tmk.compute_gen(COPY_COST * n * (hi - lo))
        yield from tmk.barrier_gen()

    for _ in range(warmup):
        yield from one_iteration()
    tmk.env.mark("start")
    for _ in range(iters):
        yield from one_iteration()
    tmk.env.mark("stop")
    sig = partial_signature({"u": u.raw(), "scratch": scratch}, lo, hi)
    return sig


# ---------------------------------------------------------------------- #
# hand-coded PVMe message passing

TAG_UP, TAG_DOWN = 10, 11


def hand_pvme(p, params: dict):
    n, iters, warmup = params["n"], params["iters"], params["warmup"]
    lo, hi = p.block_range(n)
    u = np.zeros((n, n), dtype=np.float32)
    scratch = np.zeros((n, n), dtype=np.float32)
    init_grid(u)       # everyone initializes locally (replicated, free)

    up, down = p.tid - 1, p.tid + 1

    def one_iteration():
        # exchange boundary rows with neighbours (one message per line)
        if up >= 0:
            yield from p.send_gen(up, u[lo].copy(), tag=TAG_UP)
        if down < p.ntasks:
            yield from p.send_gen(down, u[hi - 1].copy(), tag=TAG_DOWN)
        if up >= 0:
            u[lo - 1] = yield from p.recv_gen(src=up, tag=TAG_DOWN)
        if down < p.ntasks:
            u[hi] = yield from p.recv_gen(src=down, tag=TAG_UP)
        stencil_rows(u, scratch, lo, hi)
        yield from p.compute_gen(STENCIL_COST * n * (hi - lo))
        copy_rows(u, scratch, lo, hi)     # no communication between phases
        yield from p.compute_gen(COPY_COST * n * (hi - lo))

    for _ in range(warmup):
        yield from one_iteration()
    p.env.mark("start")
    for _ in range(iters):
        yield from one_iteration()
    p.env.mark("stop")
    return partial_signature({"u": u, "scratch": scratch}, lo, hi)


SPEC = register(AppSpec(
    name="jacobi",
    regular=True,
    build_program=build_program,
    hand_tmk_setup=hand_tmk_setup,
    hand_tmk=hand_tmk,
    hand_pvme=hand_pvme,
    presets=PRESETS,
    signature_arrays=["u", "scratch"],
    spf_opt_options=lambda: SpfOptions(aggregate=True),
    notes="Section 5.1; hand optimization = communication aggregation",
))

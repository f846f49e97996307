"""Shallow: the shallow-water benchmark from NCAR.

Section 5.2 of the paper.  Thirteen equal-sized two-dimensional arrays in
wrap-around format; each iteration has three steps, each consisting of a
main loop that updates three to four arrays from some others, followed by
wrap-around copying of the modified arrays (two separate loops: boundary
*lines along* the partitioned dimension, parallelized; boundary *lines
across* it, sequential — executed by the master under SPF, which the paper
identifies as that variant's main extra communication).

The discretization is the classic SWM scheme (Sadourny's method, the same
one the benchmark implements): step 1 computes mass fluxes ``cu``/``cv``,
potential vorticity ``z`` and height ``h``; step 2 advances ``unew``/
``vnew``/``pnew``; step 3 applies Robert-Asselin time smoothing.  The
paper's Fortran partitions by column (column-major); this C-order version
partitions by row — identical layout in memory.
"""

from __future__ import annotations

import numpy as np

from repro.apps.common import (AppSpec, append_signature_loops,
                               partial_signature, register)
from repro.compiler.ir import (Access, ArrayDecl, Full, Mark, ParallelLoop,
                               Program, SeqBlock, Span, TimeLoop)
from repro.compiler.spf import SpfOptions

__all__ = ["SPEC", "build_program", "hand_tmk", "hand_pvme"]

# physics constants of the benchmark
DX = DY = 1.0e5
DT = 90.0
ALPHA = 0.001
PCF_A = 1.0e6

# per-element costs calibrated to ~40 s sequential at 1024^2 x 50 (Table 1
# row unreadable in the OCR; see eval/constants.py)
STEP1_COST = 250e-9
STEP2_COST = 330e-9
STEP3_COST = 220e-9
WRAP_COST = 30e-9

STATE = ["u", "v", "p"]
NEW = ["unew", "vnew", "pnew"]
OLD = ["uold", "vold", "pold"]
FLUX = ["cu", "cv", "z", "h"]
ALL_ARRAYS = STATE + NEW + OLD + FLUX          # the paper's 13 arrays

PRESETS = {
    "paper": dict(n=1024, iters=50, warmup=1),
    "bench": dict(n=1024, iters=8, warmup=1),
    "test": dict(n=64, iters=3, warmup=1),
}


# ---------------------------------------------------------------------- #
# kernels

def init_fields(a: dict, n: int) -> None:
    """Initial stream-function-derived velocity field and height."""
    idx = np.arange(n, dtype=np.float64)
    el = (n - 2) * DX
    pcf = (np.pi ** 2) * (PCF_A ** 2) / (el ** 2)
    x = 2.0 * np.pi * idx / (n - 2)
    psi = PCF_A * np.sin(x[:, None] / 2.0) ** 2 * np.sin(x[None, :] / 2.0) ** 2
    a["u"][...] = 0.0
    a["v"][...] = 0.0
    a["u"][1:, :] = -(psi[1:, :] - psi[:-1, :]) / DY
    a["v"][:, 1:] = (psi[:, 1:] - psi[:, :-1]) / DX
    a["p"][...] = (pcf * (np.cos(x[:, None]) + np.cos(x[None, :]))
                   + 50000.0) / 100.0
    for s, o in zip(STATE, OLD):
        a[o][...] = a[s]


def step1_rows(a: dict, lo: int, hi: int, n: int) -> None:
    """cu, cv, z, h for rows [lo, hi) ∩ [1, n-1)."""
    lo, hi = max(lo, 1), min(hi, n - 1)
    if hi <= lo:
        return
    fsdx, fsdy = 4.0 / DX, 4.0 / DY
    u, v, p = a["u"], a["v"], a["p"]
    i = slice(lo, hi)
    im1 = slice(lo - 1, hi - 1)
    ip1 = slice(lo + 1, hi + 1)
    j = slice(1, n - 1)
    jm1 = slice(0, n - 2)
    jp1 = slice(2, n)
    a["cu"][i, j] = 0.5 * (p[i, j] + p[im1, j]) * u[i, j]
    a["cv"][i, j] = 0.5 * (p[i, j] + p[i, jm1]) * v[i, j]
    a["z"][i, j] = ((fsdx * (v[i, j] - v[im1, j])
                     - fsdy * (u[i, j] - u[i, jm1]))
                    / (p[im1, jm1] + p[i, jm1] + p[im1, j] + p[i, j]))
    a["h"][i, j] = p[i, j] + 0.25 * (u[ip1, j] ** 2 + u[i, j] ** 2
                                     + v[i, jp1] ** 2 + v[i, j] ** 2)


def step2_rows(a: dict, lo: int, hi: int, n: int, tdt: float) -> None:
    """unew, vnew, pnew for rows [lo, hi) ∩ [1, n-1)."""
    lo, hi = max(lo, 1), min(hi, n - 1)
    if hi <= lo:
        return
    tdts8 = tdt / 8.0
    tdtsdx, tdtsdy = tdt / DX, tdt / DY
    cu, cv, z, h = a["cu"], a["cv"], a["z"], a["h"]
    i = slice(lo, hi)
    im1 = slice(lo - 1, hi - 1)
    ip1 = slice(lo + 1, hi + 1)
    j = slice(1, n - 1)
    jm1 = slice(0, n - 2)
    jp1 = slice(2, n)
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


def step3_rows(a: dict, lo: int, hi: int) -> None:
    """Time smoothing over rows [lo, hi) (no halo)."""
    i = slice(lo, hi)
    for s, nw, od in zip(STATE, NEW, OLD):
        a[od][i] = (a[s][i]
                    + ALPHA * (a[nw][i] - 2.0 * a[s][i] + a[od][i]))
        a[s][i] = a[nw][i]


def col_wrap_rows(a: dict, names: list, lo: int, hi: int, n: int) -> None:
    """Wrap boundary columns of own rows (parallel, local)."""
    i = slice(lo, hi)
    for name in names:
        a[name][i, 0] = a[name][i, n - 2]
        a[name][i, n - 1] = a[name][i, 1]


def row_wrap(a: dict, names: list, n: int) -> None:
    """Wrap boundary rows (the sequential wrap loop of the paper)."""
    for name in names:
        a[name][0, :] = a[name][n - 2, :]
        a[name][n - 1, :] = a[name][1, :]


# ---------------------------------------------------------------------- #
# IR description

def build_program(params: dict) -> Program:
    n, iters, warmup = params["n"], params["iters"], params["warmup"]
    tdt = 2.0 * DT

    def halo(names):
        return [Access(name, (Span(-1, 1), Full())) for name in names]

    def rows(names):
        return [Access(name, (Span(), Full())) for name in names]

    def row_access(names, row_lo):
        return [Access(name, (Span(row_lo, row_lo + 1), Full()))
                for name in names]

    def wrap_stmts(names, tag):
        return [
            ParallelLoop(f"colwrap{tag}", n,
                         lambda views, lo, hi, _ns=tuple(names):
                             col_wrap_rows(views, list(_ns), lo, hi, n),
                         reads=rows(names), writes=rows(names),
                         align=(names[0], 0),
                         cost_per_iter=WRAP_COST * len(names)),
            SeqBlock(f"rowwrap{tag}",
                     lambda views, _ns=tuple(names):
                         row_wrap(views, list(_ns), n),
                     reads=(row_access(names, n - 2) + row_access(names, 1)),
                     writes=(row_access(names, 0)
                             + row_access(names, n - 1)),
                     cost=WRAP_COST * len(names) * n),
        ]

    iteration = (
        [ParallelLoop("step1", n,
                      lambda views, lo, hi: step1_rows(views, lo, hi, n),
                      reads=halo(STATE),
                      writes=rows(FLUX),
                      align=("cu", 0), cost_per_iter=STEP1_COST * n)]
        + wrap_stmts(FLUX, 1)
        + [ParallelLoop("step2", n,
                        lambda views, lo, hi: step2_rows(views, lo, hi, n,
                                                         tdt),
                        reads=halo(FLUX) + rows(OLD),
                        writes=rows(NEW),
                        align=("unew", 0), cost_per_iter=STEP2_COST * n)]
        + wrap_stmts(NEW, 2)
        + [ParallelLoop("step3", n,
                        lambda views, lo, hi: step3_rows(views, lo, hi),
                        reads=rows(STATE) + rows(NEW) + rows(OLD),
                        writes=rows(STATE) + rows(OLD),
                        align=("u", 0), cost_per_iter=STEP3_COST * n)]
    )

    program = Program(
        name="shallow",
        arrays=[ArrayDecl(name, (n, n), np.float32, distribute=0)
                for name in ALL_ARRAYS],
        body=[SeqBlock("init",
                       lambda views: init_fields(views, n),
                       writes=[Access(name, (Full(), Full()))
                               for name in STATE + OLD],
                       cost=20e-9 * n * n),
              TimeLoop("warmup", warmup, iteration),
              Mark("start"),
              TimeLoop("iterations", iters, iteration),
              Mark("stop")],
        params=dict(params),
    )
    return append_signature_loops(program, ["p", "u", "v"])


# ---------------------------------------------------------------------- #
# hand-coded TreadMarks

def hand_tmk_setup(space, params: dict) -> None:
    n = params["n"]
    for name in ALL_ARRAYS:
        space.alloc(name, (n, n), np.float32)


def hand_tmk(tmk, params: dict):
    n, iters, warmup = params["n"], params["iters"], params["warmup"]
    arrays = {name: tmk.array(name) for name in ALL_ARRAYS}
    views = {name: arr.raw() for name, arr in arrays.items()}
    lo, hi = tmk.block_range(n)
    tdt = 2.0 * DT
    owns_first = lo == 0
    owns_last = hi == n

    def read(names, rlo, rhi):
        for name in names:
            steps = arrays[name].read_steps((slice(rlo, rhi), slice(None)))
            if steps is not None:
                yield from steps

    def write(names, wlo, whi):
        for name in names:
            steps = arrays[name].writable_steps((slice(wlo, whi),
                                                 slice(None)))
            if steps is not None:
                yield from steps

    if tmk.pid == 0:
        for name in STATE + OLD:
            steps = arrays[name].writable_steps()
            if steps is not None:
                yield from steps
        init_fields(views, n)
        yield from tmk.compute_gen(20e-9 * n * n)
    yield from tmk.barrier_gen()

    def wraps(names):
        """Boundary-line copies, done by the owning processors."""
        col_wrap_rows(views, names, lo, hi, n)        # local columns
        yield from tmk.compute_gen(WRAP_COST * len(names) * (hi - lo))
        if owns_first:
            for name in names:
                yield from read([name], n - 2, n - 1)
                yield from write([name], 0, 1)
                views[name][0, :] = views[name][n - 2, :]
        if owns_last:
            for name in names:
                yield from read([name], 1, 2)
                yield from write([name], n - 1, n)
                views[name][n - 1, :] = views[name][1, :]

    def one_iteration():
        yield from read(STATE, max(lo - 1, 0), min(hi + 1, n))
        yield from write(FLUX, lo, hi)
        step1_rows(views, lo, hi, n)
        yield from tmk.compute_gen(STEP1_COST * n * (hi - lo))
        yield from tmk.barrier_gen()
        yield from wraps(FLUX)
        yield from tmk.barrier_gen()
        yield from read(FLUX, max(lo - 1, 0), min(hi + 1, n))
        yield from read(OLD, lo, hi)
        yield from write(NEW, lo, hi)
        step2_rows(views, lo, hi, n, tdt)
        yield from tmk.compute_gen(STEP2_COST * n * (hi - lo))
        yield from tmk.barrier_gen()
        yield from wraps(NEW)
        yield from tmk.barrier_gen()
        yield from write(STATE + OLD, lo, hi)
        step3_rows(views, lo, hi)
        yield from tmk.compute_gen(STEP3_COST * n * (hi - lo))
        yield from tmk.barrier_gen()

    for _ in range(warmup):
        yield from one_iteration()
    tmk.env.mark("start")
    for _ in range(iters):
        yield from one_iteration()
    tmk.env.mark("stop")
    return partial_signature({k: views[k] for k in ("p", "u", "v")}, lo, hi)


# ---------------------------------------------------------------------- #
# hand-coded PVMe: aggregated halo exchange, owner-computes wraps

TAG_UP, TAG_DOWN, TAG_WRAP = 20, 21, 22


def hand_pvme(p, params: dict):
    n, iters, warmup = params["n"], params["iters"], params["warmup"]
    lo, hi = p.block_range(n)
    views = {name: np.zeros((n, n), dtype=np.float32) for name in ALL_ARRAYS}
    tdt = 2.0 * DT
    init_fields(views, n)   # replicated initialization (local, free)
    up, down = p.tid - 1, p.tid + 1
    owns_first, owns_last = lo == 0, hi == n
    first_owner, last_owner = 0, p.ntasks - 1

    def exchange(names):
        """One aggregated message per neighbour carrying all halo lines."""
        if up >= 0:
            yield from p.send_gen(up, np.stack([views[m][lo] for m in names]),
                                  tag=TAG_UP)
        if down < p.ntasks:
            yield from p.send_gen(
                down, np.stack([views[m][hi - 1] for m in names]),
                tag=TAG_DOWN)
        if up >= 0:
            block = yield from p.recv_gen(src=up, tag=TAG_DOWN)
            for k, name in enumerate(names):
                views[name][lo - 1] = block[k]
        if down < p.ntasks:
            block = yield from p.recv_gen(src=down, tag=TAG_UP)
            for k, name in enumerate(names):
                views[name][hi] = block[k]

    def wraps(names):
        col_wrap_rows(views, names, lo, hi, n)
        yield from p.compute_gen(WRAP_COST * len(names) * (hi - lo))
        # rows n-2 and 1 travel to the owners of rows 0 and n-1
        if owns_last and not owns_first:
            yield from p.send_gen(
                first_owner, np.stack([views[m][n - 2] for m in names]),
                tag=TAG_WRAP)
        if owns_first and not owns_last:
            yield from p.send_gen(
                last_owner, np.stack([views[m][1] for m in names]),
                tag=TAG_WRAP)
        if owns_first:
            if not owns_last:
                block = yield from p.recv_gen(src=last_owner, tag=TAG_WRAP)
                for k, name in enumerate(names):
                    views[name][n - 2] = block[k]
            for name in names:
                views[name][0, :] = views[name][n - 2, :]
        if owns_last:
            if not owns_first:
                block = yield from p.recv_gen(src=first_owner, tag=TAG_WRAP)
                for k, name in enumerate(names):
                    views[name][1] = block[k]
            for name in names:
                views[name][n - 1, :] = views[name][1, :]

    def one_iteration():
        yield from exchange(STATE)
        step1_rows(views, lo, hi, n)
        yield from p.compute_gen(STEP1_COST * n * (hi - lo))
        yield from wraps(FLUX)
        yield from exchange(FLUX)
        step2_rows(views, lo, hi, n, tdt)
        yield from p.compute_gen(STEP2_COST * n * (hi - lo))
        yield from wraps(NEW)
        step3_rows(views, lo, hi)
        yield from p.compute_gen(STEP3_COST * n * (hi - lo))

    for _ in range(warmup):
        yield from one_iteration()
    p.env.mark("start")
    for _ in range(iters):
        yield from one_iteration()
    p.env.mark("stop")
    return partial_signature({k: views[k] for k in ("p", "u", "v")}, lo, hi)


SPEC = register(AppSpec(
    name="shallow",
    regular=True,
    build_program=build_program,
    hand_tmk_setup=hand_tmk_setup,
    hand_tmk=hand_tmk,
    hand_pvme=hand_pvme,
    presets=PRESETS,
    signature_arrays=["p", "u", "v"],
    spf_opt_options=lambda: SpfOptions(aggregate=True, fuse_loops=True),
    notes="Section 5.2; hand optimization = loop merging + aggregation",
))

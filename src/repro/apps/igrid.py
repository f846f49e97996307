"""IGrid: a 9-point stencil accessed through a run-time indirection map.

Section 6.1 of the paper.  The neighbour elements are reached through a
mapping established at run time, so neither compiler can analyze the access
pattern.  Both are told the main loop's iterations are independent:

* SPF partitions the iterations and brackets the loop with synchronization;
  TreadMarks then fetches *on demand* exactly the pages actually touched
  and caches them — only the partition-boundary lines ever travel, which
  is why the DSM wins big here (speedup 7.54 vs XHPF's 3.85);
* XHPF, not knowing what will be needed, makes each processor broadcast
  its whole block at the end of each step (Table 3: 140 MB vs 131 KB).

The grid starts at all ones with two spikes (middle, lower-right corner);
the final max / min / checksum over the central 40x40 square are
recognized as reductions.  In the hand-coded TreadMarks program the
indirection map is computed locally on every processor (private memory);
SPF places it in shared memory because it is accessed in a parallel loop,
so every worker pages its slice in — accounting for SPF's larger data
total (7,374 KB vs 131 KB in Table 3).
"""

from __future__ import annotations

import numpy as np

from repro.apps.common import (AppSpec, abs_sum,
                               append_signature_loops, register)
from repro.compiler.ir import (Access, ArrayDecl, Full, Irregular, Mark,
                               ParallelLoop, Program, Reduction, SeqBlock,
                               Span, TimeLoop)

__all__ = ["SPEC", "build_program", "hand_tmk", "hand_pvme"]

# 42.6 s sequential at 500^2 x ~20 iterations (Table 1): indirect gather
# per element is expensive on a POWER2 — ~8.5 us per element-update.
UPDATE_COST = 8.5e-6
REDUCE_COST = 0.2e-6
SQUARE = 40      # the max/min/checksum square in the middle

PRESETS = {
    "paper": dict(n=500, iters=19, warmup=1),
    "bench": dict(n=500, iters=10, warmup=1),
    "test": dict(n=48, iters=3, warmup=1),
    # the machine-model ablation (repro reproduce's ext_sensitivity)
    "sensitivity": dict(n=500, iters=6, warmup=1),
}


# ---------------------------------------------------------------------- #
# kernels

def build_map(n: int) -> np.ndarray:
    """The run-time indirection map: flat indices of each cell's 9-point
    neighbourhood (clamped at the borders).  Deterministic but opaque to
    the compiler."""
    near = np.clip(np.arange(n, dtype=np.int32)[:, None]
                   + np.array([-1, 0, 1], dtype=np.int32), 0, n - 1)
    # imap[i, j, 3*di + dj] = near[i, di] * n + near[j, dj]
    return (near[:, None, :, None] * n
            + near[None, :, None, :]).reshape(n, n, 9)   # (n, n, 9) int32


WEIGHTS = np.array([0.05, 0.1, 0.05, 0.1, 0.4, 0.1, 0.05, 0.1, 0.05],
                   dtype=np.float32)


def init_grid(g: np.ndarray, n: int) -> None:
    g[...] = 1.0
    g[n // 2, n // 2] = 100.0
    g[(3 * n) // 4, (3 * n) // 4] = 50.0


def update_rows(old: np.ndarray, new: np.ndarray, imap: np.ndarray,
                lo: int, hi: int) -> None:
    """new[lo:hi] = weighted average of the mapped neighbours of old."""
    idx = imap[lo:hi]                       # (rows, n, 9)
    vals = old.reshape(-1)[idx]             # gather through the indirection
    new[lo:hi] = vals @ WEIGHTS


def square_bounds(n: int) -> tuple:
    half = SQUARE // 2
    lo = max(n // 2 - half, 0)
    return lo, min(lo + SQUARE, n)


def square_stats_rows(g: np.ndarray, n: int, lo: int, hi: int) -> dict:
    """max / min / sum over the central square, restricted to rows [lo, hi)."""
    slo, shi = square_bounds(n)
    rlo, rhi = max(lo, slo), min(hi, shi)
    if rhi <= rlo:
        return {"gmax": -np.inf, "gmin": np.inf, "gsum": 0.0}
    part = g[rlo:rhi, slo:shi]
    return {"gmax": float(part.max()), "gmin": float(part.min()),
            "gsum": float(np.sum(part, dtype=np.float64))}


def touched_indices(imap: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Flat indices the chunk's gathers actually touch (= what would fault)."""
    return np.unique(imap[lo:hi].ravel())


# ---------------------------------------------------------------------- #
# IR description

def build_program(params: dict) -> Program:
    n, iters, warmup = params["n"], params["iters"], params["warmup"]

    def init_kernel(views):
        init_grid(views["g0"], n)
        views["g1"][...] = 1.0
        views["imap"][...] = build_map(n)

    def step(t: int):
        src, dst = ("g0", "g1") if t % 2 == 0 else ("g1", "g0")

        def kernel(views, lo, hi, _s=src, _d=dst):
            update_rows(views[_s], views[_d], views["imap"], lo, hi)

        def footprint(views, lo, hi):
            return touched_indices(views["imap"], lo, hi)

        return [ParallelLoop(
            f"update[{t % 2}]", n, kernel,
            reads=[Access(src, Irregular(footprint)),
                   Access("imap", (Span(), Full(), Full()))],
            writes=[Access(dst, (Span(), Full()))],
            align=(dst, 0), cost_per_iter=UPDATE_COST * n)]

    final = "g1" if (warmup + iters) % 2 == 1 else "g0"

    def stats_kernel(views, lo, hi):
        return square_stats_rows(views[final], n, lo, hi)

    program = Program(
        name="igrid",
        arrays=[ArrayDecl("g0", (n, n), np.float32, distribute=0),
                ArrayDecl("g1", (n, n), np.float32, distribute=0),
                ArrayDecl("imap", (n, n, 9), np.int32, distribute=0)],
        body=[SeqBlock("init", init_kernel,
                       writes=[Access("g0", (Full(), Full())),
                               Access("g1", (Full(), Full())),
                               Access("imap", (Full(), Full(), Full()))],
                       cost=100e-9 * n * n),
              TimeLoop("warmup", warmup, step),
              Mark("start"),
              TimeLoop("iterations", iters,
                       lambda t, _w=warmup: step(t + _w)),
              ParallelLoop("stats", n, stats_kernel,
                           reads=[Access(final, (Span(), Full()))],
                           reductions=[Reduction("gmax", op="max"),
                                       Reduction("gmin", op="min"),
                                       Reduction("gsum")],
                           align=(final, 0),
                           cost_per_iter=REDUCE_COST * n),
              Mark("stop")],
        params=dict(params),
    )
    return append_signature_loops(program, [final])


# ---------------------------------------------------------------------- #
# hand-coded TreadMarks: the map is private; grids are shared

def hand_tmk_setup(space, params: dict) -> None:
    n = params["n"]
    space.alloc("g0", (n, n), np.float32)
    space.alloc("g1", (n, n), np.float32)
    space.alloc("stats", (64, 3), np.float64)  # per-proc (max, min, sum)


def hand_tmk(tmk, params: dict):
    n, iters, warmup = params["n"], params["iters"], params["warmup"]
    g = [tmk.array("g0"), tmk.array("g1")]
    raw = [g[0].raw(), g[1].raw()]
    lo, hi = tmk.block_range(n)
    imap = build_map(n)                      # computed locally (private)

    if tmk.pid == 0:
        for grid in g:
            steps = grid.writable_steps()
            if steps is not None:
                yield from steps
        init_grid(raw[0], n)
        raw[1][...] = 1.0
        yield from tmk.compute_gen(100e-9 * n * n)
    yield from tmk.barrier_gen()

    def one_iteration(t: int):
        s, d = t % 2, 1 - (t % 2)
        idx = touched_indices(imap, lo, hi)
        steps = tmk.node.ensure_read_elements_steps(g[s].handle, idx)
        if steps is not None:
            yield from steps
        steps = g[d].writable_steps((slice(lo, hi),))
        if steps is not None:
            yield from steps
        update_rows(raw[s], raw[d], imap, lo, hi)
        yield from tmk.compute_gen(UPDATE_COST * n * (hi - lo))
        yield from tmk.barrier_gen()

    for t in range(warmup):
        yield from one_iteration(t)
    tmk.env.mark("start")
    for t in range(iters):
        yield from one_iteration(t + warmup)
    final = (warmup + iters) % 2
    stats = square_stats_rows(raw[final], n, lo, hi)
    yield from tmk.compute_gen(REDUCE_COST * n * (hi - lo))
    # per-processor partials land in a shared array; proc 0 combines
    shared_stats = tmk.array("stats")
    yield from shared_stats.write_gen(
        (slice(tmk.pid, tmk.pid + 1), slice(None)),
        [stats["gmax"], stats["gmin"], stats["gsum"]])
    yield from tmk.barrier_gen()
    sig = {"sig_" + ("g1" if final else "g0"): abs_sum(raw[final][lo:hi])}
    if tmk.pid == 0:
        rows = yield from shared_stats.read_gen((slice(0, tmk.nprocs),
                                                 slice(None)))
        sig["gmax"] = float(rows[:, 0].max())
        sig["gmin"] = float(rows[:, 1].min())
        sig["gsum"] = float(rows[:, 2].sum())
    tmk.env.mark("stop")
    return sig


# ---------------------------------------------------------------------- #
# hand-coded PVMe: exchange only the boundary lines the stencil touches

TAG_UP, TAG_DOWN = 40, 41


def hand_pvme(p, params: dict):
    n, iters, warmup = params["n"], params["iters"], params["warmup"]
    lo, hi = p.block_range(n)
    grids = [np.zeros((n, n), np.float32), np.zeros((n, n), np.float32)]
    init_grid(grids[0], n)
    grids[1][...] = 1.0
    imap = build_map(n)
    up, down = p.tid - 1, p.tid + 1

    def one_iteration(t: int):
        s = t % 2
        d = 1 - s
        src, dst = grids[s], grids[d]
        if up >= 0:
            yield from p.send_gen(up, src[lo].copy(), tag=TAG_UP)
        if down < p.ntasks:
            yield from p.send_gen(down, src[hi - 1].copy(), tag=TAG_DOWN)
        if up >= 0:
            src[lo - 1] = yield from p.recv_gen(src=up, tag=TAG_DOWN)
        if down < p.ntasks:
            src[hi] = yield from p.recv_gen(src=down, tag=TAG_UP)
        update_rows(src, dst, imap, lo, hi)
        yield from p.compute_gen(UPDATE_COST * n * (hi - lo))

    for t in range(warmup):
        yield from one_iteration(t)
    p.env.mark("start")
    for t in range(iters):
        yield from one_iteration(t + warmup)
    final = (warmup + iters) % 2
    stats = square_stats_rows(grids[final], n, lo, hi)
    yield from p.compute_gen(REDUCE_COST * n * (hi - lo))
    gmax = yield from p.allreduce_gen(stats["gmax"], max)
    gmin = yield from p.allreduce_gen(stats["gmin"], min)
    gsum = yield from p.allreduce_gen(stats["gsum"], lambda a, b: a + b)
    p.env.mark("stop")
    sig = {"sig_" + ("g1" if final else "g0"): abs_sum(grids[final][lo:hi])}
    if p.tid == 0:
        sig.update({"gmax": gmax, "gmin": gmin, "gsum": gsum})
    return sig


SPEC = register(AppSpec(
    name="igrid",
    regular=False,
    build_program=build_program,
    hand_tmk_setup=hand_tmk_setup,
    hand_tmk=hand_tmk,
    hand_pvme=hand_pvme,
    presets=PRESETS,
    signature_arrays=[],     # final-grid signature name depends on parity
    spf_opt_options=None,    # the paper applies no hand optimization here
    notes="Section 6.1; irregular — DSM fetches on demand, XHPF broadcasts",
))

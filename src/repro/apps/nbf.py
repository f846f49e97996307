"""NBF: the non-bonded force kernel of a molecular dynamics simulation.

Section 6.2 of the paper.  Each molecule has a list of *partners* (molecules
close enough to exert non-negligible force).  The force loop walks each
molecule's partner list and "updates the forces on both of them based on
the distance between them"; at iteration end the coordinates advance under
the accumulated force.  Molecules are block-partitioned; "each processor
accumulates the force updates in a local buffer, and adds the buffers
together after the force computation loop".

The indirection (partner lists) defeats both compilers' analysis:

* SPF + TreadMarks fetch on demand: only the partner-window boundary pages
  of the coordinate array and the overlapping staging sections travel;
* XHPF "makes each processor broadcast its local force buffer, and the
  coordinates of all its molecules" — 163 MB vs TreadMarks' 228 KB in
  Table 3, and the worst speedup of the study (3.85 vs 5.31/5.86/6.18).

Partner lists are synthetic but structurally faithful: partner ``j`` of
molecule ``i`` satisfies ``i < j <= i + W`` (pair listed once, forces
applied to both), with ``W`` far smaller than a partition, so cross-
processor interactions are confined to partition boundaries — the "close
enough" locality of a real MD decomposition.
"""

from __future__ import annotations

import numpy as np

from repro.apps.common import (AppSpec, abs_sum,
                               append_signature_loops, register)
from repro.compiler.ir import (Access, ArrayDecl, Full, Irregular, Mark,
                               ParallelLoop, Program, Reduction, SeqBlock,
                               Span, TimeLoop)

__all__ = ["SPEC", "build_program", "hand_tmk", "hand_pvme"]

# 63.9 s sequential at 32K molecules x 20 iterations (Table 1) with 16
# partners per molecule -> ~6.1 us per pair interaction.
PAIR_COST = 6.1e-6
UPDATE_COST = 0.15e-6
MERGE_COST = 0.05e-6
DT = 1e-3
SOFTEN = 0.5      # softening in the denominator keeps forces bounded

PRESETS = {
    "paper": dict(n=32768, iters=20, warmup=0, P=16, W=3072),
    "bench": dict(n=32768, iters=6, warmup=0, P=16, W=3072),
    "test": dict(n=256, iters=3, warmup=0, P=8, W=16),
}


# ---------------------------------------------------------------------- #
# model construction and kernels

def build_partners(n: int, P: int, W: int) -> np.ndarray:
    """Deterministic partner lists: P partners in (i, i+W], self-padded."""
    rng = np.random.default_rng(12345)
    offsets = rng.integers(1, W + 1, size=(n, P)).astype(np.int64)
    partners = np.arange(n, dtype=np.int64)[:, None] + offsets
    own = np.arange(n, dtype=np.int64)[:, None]
    partners = np.where(partners < n, partners, own)  # pad with self (zero force)
    return np.sort(partners, axis=1).astype(np.int32)


def init_positions(pos: np.ndarray) -> None:
    n = pos.shape[0]
    t = np.arange(n, dtype=np.float64)
    pos[:, 0] = 0.9 * t
    pos[:, 1] = np.sin(0.05 * t)
    pos[:, 2] = np.cos(0.07 * t)


def pair_forces_rows(pos: np.ndarray, partners: np.ndarray,
                     forces: np.ndarray, lo: int, hi: int) -> None:
    """Accumulate pair forces for molecules [lo, hi) into ``forces``."""
    idx = partners[lo:hi].astype(np.int64)            # (rows, P)
    d = pos[lo:hi, None, :].astype(np.float64) - pos[idx]
    r2 = np.sum(d * d, axis=-1) + SOFTEN
    f = d / (r2 ** 1.5)[..., None]                    # (rows, P, 3)
    np.add.at(forces, np.arange(lo, hi), f.sum(axis=1).astype(forces.dtype))
    np.subtract.at(forces.reshape(-1, 3), idx.ravel(),
                   f.reshape(-1, 3).astype(forces.dtype))


def update_rows(pos: np.ndarray, forces: np.ndarray, lo: int, hi: int) -> dict:
    pos[lo:hi] += DT * forces[lo:hi]
    e = float(np.sum(pos[lo:hi].astype(np.float64) ** 2))
    return {"esum": e}


def touched_rows(partners: np.ndarray, lo: int, hi: int) -> np.ndarray:
    return np.unique(np.concatenate([np.arange(lo, hi, dtype=np.int64),
                                     partners[lo:hi].astype(np.int64).ravel()]))


def _row_elements(rows: np.ndarray, width: int = 3) -> np.ndarray:
    """Flat element indices of whole (N, 3) rows."""
    return (rows[:, None] * width + np.arange(width)[None, :]).ravel()


# ---------------------------------------------------------------------- #
# IR description

def build_program(params: dict) -> Program:
    n, iters, warmup = params["n"], params["iters"], params["warmup"]
    P, W = params["P"], params["W"]

    def init_kernel(views):
        init_positions(views["pos"])
        views["partners"][...] = build_partners(n, P, W)

    def force_kernel(views, lo, hi):
        pair_forces_rows(views["pos"], views["partners"], views["forces"],
                         lo, hi)

    def pos_footprint(views, lo, hi):
        return _row_elements(touched_rows(views["partners"], lo, hi))

    def update_kernel(views, lo, hi):
        return update_rows(views["pos"], views["forces"], lo, hi)

    iteration = [
        ParallelLoop("forces", n, force_kernel,
                     reads=[Access("pos", Irregular(pos_footprint)),
                            Access("partners", (Span(), Full()))],
                     writes=[Access("forces", Irregular(pos_footprint))],
                     accumulate=["forces"],
                     align=("pos", 0),
                     cost_per_iter=PAIR_COST * P,
                     merge_cost_per_iter=MERGE_COST),
        ParallelLoop("update", n, update_kernel,
                     reads=[Access("forces", (Span(), Full()))],
                     writes=[Access("pos", (Span(), Full()))],
                     reductions=[Reduction("esum")],
                     align=("pos", 0),
                     cost_per_iter=UPDATE_COST),
    ]
    program = Program(
        name="nbf",
        arrays=[ArrayDecl("pos", (n, 3), np.float32, distribute=0),
                ArrayDecl("forces", (n, 3), np.float32, distribute=0),
                ArrayDecl("partners", (n, P), np.int32, distribute=0)],
        body=[SeqBlock("init", init_kernel,
                       writes=[Access("pos", (Full(), Full())),
                               Access("partners", (Full(), Full()))],
                       cost=50e-9 * n),
              TimeLoop("warmup", max(warmup, 1), iteration),
              Mark("start"),
              TimeLoop("iterations", iters, iteration),
              Mark("stop")],
        params=dict(params),
    )
    return append_signature_loops(program, ["pos", "forces"])


# ---------------------------------------------------------------------- #
# hand-coded TreadMarks: private buffer + shared staging + merge loop

def hand_tmk_setup(space, params: dict) -> None:
    n = params["n"]
    space.alloc("pos", (n, 3), np.float32)
    space.alloc("staging", (64, n, 3), np.float32)


def hand_tmk(tmk, params: dict):
    n, iters = params["n"], params["iters"]
    warmup = max(params["warmup"], 1)
    P, W = params["P"], params["W"]
    pos = tmk.array("pos")
    staging = tmk.array("staging")
    pos_raw, staging_raw = pos.raw(), staging.raw()
    lo, hi = tmk.block_range(n)
    partners = build_partners(n, P, W)               # private (computed locally)
    forces = np.zeros((n, 3), dtype=np.float32)      # private buffer
    touched = touched_rows(partners, lo, hi)
    touched_elems = _row_elements(touched)
    esum = [0.0]

    if tmk.pid == 0:
        steps = pos.writable_steps()
        if steps is not None:
            yield from steps
        init_positions(pos_raw)
        yield from tmk.compute_gen(50e-9 * n)
    yield from tmk.barrier_gen()

    def one_iteration():
        forces[...] = 0.0
        steps = tmk.node.ensure_read_elements_steps(pos.handle, touched_elems)
        if steps is not None:
            yield from steps
        pair_forces_rows(pos_raw, partners, forces, lo, hi)
        yield from tmk.compute_gen(PAIR_COST * P * (hi - lo))
        # publish contributions in this processor's staging row
        base = tmk.pid * n
        steps = tmk.node.ensure_write_elements_steps(
            staging.handle, _row_elements(base + touched))
        if steps is not None:
            yield from steps
        staging_raw[tmk.pid, touched] = forces[touched]
        yield from tmk.barrier_gen()
        # merge: own block = sum of every processor's contributions
        steps = tmk.node.ensure_read_steps(
            staging.handle, (slice(0, tmk.nprocs), slice(lo, hi)))
        if steps is not None:
            yield from steps
        merged = staging_raw[:tmk.nprocs, lo:hi].sum(axis=0)
        yield from tmk.compute_gen(MERGE_COST * (hi - lo))
        steps = pos.writable_steps((slice(lo, hi), slice(None)))
        if steps is not None:
            yield from steps
        pos_raw[lo:hi] += DT * merged
        esum[0] = float(np.sum(pos_raw[lo:hi].astype(np.float64) ** 2))
        yield from tmk.compute_gen(UPDATE_COST * (hi - lo))
        yield from tmk.barrier_gen()

    for _ in range(warmup):
        yield from one_iteration()
    tmk.env.mark("start")
    for _ in range(iters):
        yield from one_iteration()
    tmk.env.mark("stop")
    merged_final = staging_raw[:tmk.nprocs, lo:hi].sum(axis=0)
    return {"sig_pos": abs_sum(pos_raw[lo:hi]),
            "sig_forces": abs_sum(merged_final),
            "esum": esum[0]}


# ---------------------------------------------------------------------- #
# hand-coded PVMe: windowed position exchange + cross-contribution returns

TAG_POS, TAG_CONTRIB = 50, 51


def hand_pvme(p, params: dict):
    n, iters = params["n"], params["iters"]
    warmup = max(params["warmup"], 1)
    P, W = params["P"], params["W"]
    lo, hi = p.block_range(n)
    if hi - lo < W and p.ntasks > 1:
        raise ValueError("partner window exceeds a partition; "
                         "enlarge n or reduce W")
    pos = np.zeros((n, 3), dtype=np.float32)
    forces = np.zeros((n, 3), dtype=np.float32)
    init_positions(pos)
    partners = build_partners(n, P, W)
    up, down = p.tid - 1, p.tid + 1
    esum = [0.0]

    def one_iteration():
        # partners reach at most W molecules ahead: fetch [hi, hi+W) from
        # the next processor, supply [lo, lo+W) to the previous one
        if up >= 0:
            yield from p.send_gen(up, pos[lo:lo + W].copy(), tag=TAG_POS)
        if down < p.ntasks:
            pos[hi:hi + W] = yield from p.recv_gen(src=down, tag=TAG_POS)
        forces[...] = 0.0
        pair_forces_rows(pos, partners, forces, lo, hi)
        yield from p.compute_gen(PAIR_COST * P * (hi - lo))
        # contributions to molecules [hi, hi+W) belong to the next processor
        if down < p.ntasks:
            yield from p.send_gen(down, forces[hi:hi + W].copy(),
                                  tag=TAG_CONTRIB)
        if up >= 0:
            contrib = yield from p.recv_gen(src=up, tag=TAG_CONTRIB)
            forces[lo:lo + W] += contrib
        pos[lo:hi] += DT * forces[lo:hi]
        esum[0] = float(np.sum(pos[lo:hi].astype(np.float64) ** 2))
        yield from p.compute_gen(UPDATE_COST * (hi - lo))

    for _ in range(warmup):
        yield from one_iteration()
    p.env.mark("start")
    for _ in range(iters):
        yield from one_iteration()
    p.env.mark("stop")
    return {"sig_pos": abs_sum(pos[lo:hi]),
            "sig_forces": abs_sum(forces[lo:hi]),
            "esum": esum[0]}


SPEC = register(AppSpec(
    name="nbf",
    regular=False,
    build_program=build_program,
    hand_tmk_setup=hand_tmk_setup,
    hand_tmk=hand_tmk,
    hand_pvme=hand_pvme,
    presets=PRESETS,
    signature_arrays=["pos", "forces"],
    spf_opt_options=None,
    notes="Section 6.2; irregular — partner lists defeat both compilers",
))

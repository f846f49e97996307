"""MGS: Modified Gramm-Schmidt orthonormalization.

Section 5.3 of the paper.  At iteration ``i`` the algorithm first
*sequentially* normalizes vector ``i``, then makes all vectors ``j > i``
orthogonal to it in parallel.  Vectors are distributed cyclically to
balance the shrinking triangular iteration space; all processors
synchronize at the end of an iteration.

Variant notes (from the paper):

* the SPF fork-join model executes the normalization on the *master*, so
  vector ``i`` shuttles between its owner and the master every iteration —
  the main reason SPF (3.35) trails hand-coded TreadMarks (4.19), whose
  normalization happens on the owner;
* the message-passing programs *broadcast* the ith vector, while the
  shared-memory programs have every other processor page it in from the
  owner, and pay a separate barrier — hence XHPF 5.06 / PVMe 6.55;
* the XHPF SPMD model makes **all** processors execute the normalization
  redundantly, which is why XHPF trails PVMe;
* the paper's hand optimization merges synchronization and data and adds a
  TreadMarks broadcast, lifting 4.19 to 5.09 — reproduced here with the
  fork-piggyback option of the SPF backend.
"""

from __future__ import annotations

import numpy as np

from repro.apps.common import (AppSpec, abs_sum,
                               append_signature_loops, register)
from repro.compiler.ir import (Access, ArrayDecl, Full, Mark, ParallelLoop,
                               Point, Program, SeqBlock, Span, TimeLoop)
from repro.compiler.spf import SpfOptions

__all__ = ["SPEC", "build_program", "hand_tmk", "hand_pvme"]

# 56.4 s sequential at 1024x1024 (Table 1): total work ~ sum_i (N-i)*N
# orthogonalization updates plus N normalizations -> ~105 ns/element.
ORTH_COST = 105e-9
NORM_COST = 60e-9

PRESETS = {
    "paper": dict(n=1024),
    "bench": dict(n=1024),
    "test": dict(n=64),
}


# ---------------------------------------------------------------------- #
# kernels

def init_vectors(v: np.ndarray) -> None:
    """A deterministic well-conditioned basis (diagonally dominant)."""
    n = v.shape[0]
    idx = np.arange(n, dtype=np.float64)
    v[...] = (np.sin(0.37 * (idx[:, None] + 1) * (idx[None, :] + 2))
              * 0.4).astype(v.dtype)
    v[np.arange(n), np.arange(n)] += 4.0


def normalize_vector(v: np.ndarray, i: int) -> None:
    norm = float(np.sqrt(np.sum(v[i].astype(np.float64) ** 2)))
    v[i] = (v[i] / norm).astype(v.dtype)


def orthogonalize_rows(v: np.ndarray, i: int, rows: np.ndarray) -> None:
    """v[rows] -= (v[rows] . v[i]) v[i] (all rows > i)."""
    if len(rows) == 0:
        return
    vi = v[i].astype(np.float64)
    coef = v[rows].astype(np.float64) @ vi
    v[rows] = (v[rows] - coef[:, None] * vi[None, :]).astype(v.dtype)


# ---------------------------------------------------------------------- #
# IR description

def build_program(params: dict) -> Program:
    n = params["n"]

    def iteration(i: int) -> list:
        def norm_kernel(views, _i=i):
            normalize_vector(views["v"], _i)

        def orth_kernel(views, rows, _i=i):
            orthogonalize_rows(views["v"], _i, rows)

        stmts = [SeqBlock(f"normalize[{i}]", norm_kernel,
                          reads=[Access("v", (Point(i), Full()))],
                          writes=[Access("v", (Point(i), Full()))],
                          cost=NORM_COST * n)]
        if i + 1 < n:
            stmts.append(ParallelLoop(
                f"orthogonalize[{i}]", n, orth_kernel,
                reads=[Access("v", (Point(i), Full())),
                       Access("v", (Span(), Full()))],
                writes=[Access("v", (Span(), Full()))],
                schedule="cyclic", start=i + 1,
                align=("v", 0), cost_per_iter=ORTH_COST * n))
        return stmts

    program = Program(
        name="mgs",
        arrays=[ArrayDecl("v", (n, n), np.float32, distribute=0,
                          dist_kind="cyclic")],
        body=[SeqBlock("init", lambda views: init_vectors(views["v"]),
                       writes=[Access("v", (Full(), Full()))],
                       cost=10e-9 * n * n),
              Mark("start"),
              TimeLoop("vectors", n, iteration),
              Mark("stop")],
        params=dict(params),
    )
    return append_signature_loops(program, ["v"])


# ---------------------------------------------------------------------- #
# hand-coded TreadMarks: the owner normalizes; one barrier per iteration

def hand_tmk_setup(space, params: dict) -> None:
    n = params["n"]
    space.alloc("v", (n, n), np.float32)


def hand_tmk(tmk, params: dict):
    n = params["n"]
    v = tmk.array("v")
    raw = tmk.node.view(v.handle)

    if tmk.pid == 0:
        steps = v.writable_steps()
        if steps is not None:
            yield from steps
        init_vectors(raw)
        yield from tmk.compute_gen(10e-9 * n * n)
    yield from tmk.barrier_gen()
    tmk.env.mark("start")

    my_rows = np.arange(tmk.pid, n, tmk.nprocs, dtype=np.int64)
    for i in range(n):
        owner = i % tmk.nprocs
        if tmk.pid == owner:
            # vector i is already current here: this processor wrote it
            # during its orthogonalization of iteration i-1
            steps = v.writable_steps((slice(i, i + 1), slice(None)))
            if steps is not None:
                yield from steps
            normalize_vector(raw, i)
            yield from tmk.compute_gen(NORM_COST * n)
        yield from tmk.barrier_gen()
        rows = my_rows[my_rows > i]
        if rows.size:
            # page in vector i
            steps = v.read_steps((slice(i, i + 1), slice(None)))
            if steps is not None:
                yield from steps
            row_elems = n
            steps = tmk.node.ensure_write_elements_steps(
                v.handle, rows * row_elems, elem_span=row_elems)
            if steps is not None:
                yield from steps
            orthogonalize_rows(raw, i, rows)
            yield from tmk.compute_gen(ORTH_COST * n * rows.size)
    yield from tmk.barrier_gen()
    tmk.env.mark("stop")
    return {"sig_v": abs_sum(raw[my_rows])}


# ---------------------------------------------------------------------- #
# hand-coded PVMe: the owner normalizes and broadcasts vector i

def hand_pvme(p, params: dict):
    n = params["n"]
    v = np.zeros((n, n), dtype=np.float32)
    init_vectors(v)
    yield from p.compute_gen(10e-9 * n * n if p.tid == 0 else 0.0)
    p.env.mark("start")
    my_rows = np.arange(p.tid, n, p.ntasks, dtype=np.int64)
    for i in range(n):
        owner = i % p.ntasks
        if p.tid == owner:
            normalize_vector(v, i)
            yield from p.compute_gen(NORM_COST * n)
            yield from p.bcast_gen(v[i].copy(), root=owner)
        else:
            v[i] = yield from p.bcast_gen(None, root=owner)
        rows = my_rows[my_rows > i]
        if rows.size:
            orthogonalize_rows(v, i, rows)
            yield from p.compute_gen(ORTH_COST * n * rows.size)
    p.env.mark("stop")
    return {"sig_v": abs_sum(v[my_rows])}


def _piggyback_hint(loop) -> list:
    """Fork-message payload for the optimized SPF variant: the vector the
    master just normalized rides on the fork (sync+data merging)."""
    name = loop.name
    if name.startswith("orthogonalize["):
        i = int(name[len("orthogonalize["):-1])
        return [("v", (slice(i, i + 1), slice(None)))]
    return []


SPEC = register(AppSpec(
    name="mgs",
    regular=True,
    build_program=build_program,
    hand_tmk_setup=hand_tmk_setup,
    hand_tmk=hand_tmk,
    hand_pvme=hand_pvme,
    presets=PRESETS,
    spf_opt_options=lambda: SpfOptions(piggyback=_piggyback_hint),
    notes="Section 5.3; hand optimization = sync+data merge and broadcast",
))

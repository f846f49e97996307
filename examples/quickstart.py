#!/usr/bin/env python
"""Quickstart: a hand-coded TreadMarks program on the simulated SP/2.

Eight simulated processors cooperatively relax a grid:

* the shared array lives in the DSM's global address space,
* each processor writes its block of rows and reads a one-row halo,
* barriers separate iterations (the lazy-invalidate protocol turns each
  boundary read into a page fault + diff fetch),
* a lock-protected shared scalar accumulates a residual.

The program is a generator function, like every program in ``repro``:
each operation that may wait is a ``yield from`` of its generator form, and
a shared-array access whose coherence check usually hits is written
``steps = array.writable_steps(region)`` / ``if steps is not None: yield
from steps`` before touching the plain numpy view.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import tmk_run

N = 256          # grid rows (= columns)
ITERS = 10
NPROCS = 8


def setup(space):
    """Static shared allocation — every processor sees this layout."""
    space.alloc("grid", (N, N), np.float32)
    space.alloc("residual", (1,), np.float64)


def program(tmk):
    grid = tmk.array("grid")
    residual = tmk.array("residual")
    lo, hi = tmk.block_range(N)

    # processor 0 initializes; the barrier publishes the write notices
    if tmk.pid == 0:
        steps = grid.writable_steps()
        if steps is not None:
            yield from steps
        view = grid.raw()
        view[...] = 0.0
        view[0, :] = 100.0
        view[-1, :] = 100.0
    yield from tmk.barrier_gen()

    for _ in range(ITERS):
        rlo, rhi = max(lo, 1), min(hi, N - 1)
        # reading the halo faults in the neighbours' boundary pages
        halo = (slice(rlo - 1, rhi + 1), slice(None))
        src = (yield from grid.read_gen(halo)).copy()
        out = 0.25 * (src[:-2] + src[2:]) + 0.5 * src[1:-1]
        delta = float(np.abs(out - src[1:-1]).sum(dtype=np.float64))
        yield from grid.write_gen((slice(rlo, rhi), slice(None)), out)
        # charge virtual FLOP time
        yield from tmk.compute_gen(50e-9 * N * (rhi - rlo))

        # scalar reduction through a TreadMarks lock
        steps = tmk.lock_acquire_steps(0)
        if steps is not None:
            yield from steps
        cur = float((yield from residual.read_gen((0,))))
        yield from residual.write_gen((0,), cur + delta)
        steps = tmk.lock_release_steps(0)
        if steps is not None:
            yield from steps
        yield from tmk.barrier_gen()

    return float((yield from residual.read_gen((0,))))


def main():
    result = tmk_run(NPROCS, program, setup)
    print(f"simulated time : {result.time * 1e3:9.2f} ms (virtual)")
    print(f"messages       : {result.messages}")
    print(f"data exchanged : {result.kilobytes:.1f} KB")
    print(f"residual       : {result.results[0]:.2f}")
    print(f"DSM events     : {result.dsm_stats.summary()}")
    by_cat = {k: tuple(v) for k, v in result.stats.by_category.items()}
    print(f"per category   : {by_cat}")


if __name__ == "__main__":
    main()

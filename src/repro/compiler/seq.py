"""Sequential execution of the IR: the correctness oracle and Table 1 baseline.

The paper obtains sequential times "by removing all synchronization from the
TreadMarks programs and executing them on a single processor" — here, by
walking the program's statement schedule with plain numpy arrays and summing
the declared compute costs.  Every parallel variant is tested against the
arrays and scalars this produces.
"""

from __future__ import annotations

import numpy as np

from repro.compiler.ir import Mark, ParallelLoop, Program, SeqBlock
from repro.compiler.partition import Chunk

__all__ = ["run_sequential", "sequential_time", "make_views"]


def make_views(program: Program) -> dict:
    """Zero-initialized full-size arrays for every declaration."""
    return {a.name: np.zeros(a.shape, dtype=a.dtype) for a in program.arrays}


def run_sequential(program: Program):
    """Execute the whole program on one processor.

    Returns ``(views, scalars, time)``: the final array contents, the final
    reduction values, and the summed virtual compute time.
    """
    views = make_views(program)
    scalars: dict = {}
    marks: dict = {}
    time = 0.0
    for stmt in program.flat_statements():
        if isinstance(stmt, Mark):
            marks[stmt.label] = time
            continue
        if isinstance(stmt, SeqBlock):
            stmt.kernel(views)
            time += stmt.cost_for(program.params)
        elif isinstance(stmt, ParallelLoop):
            for name in stmt.accumulate:   # recomputed from zero per instance
                views[name][...] = 0
            partials, cost = Chunk.whole(stmt).run(stmt, views)
            time += cost
            for name in stmt.accumulate:   # the source's buffer-merge work
                time += stmt.merge_cost_per_iter * views[name].shape[0]
            _fold_reductions(stmt, partials, scalars)
        else:
            raise TypeError(f"unexpected statement {stmt!r}")
    if "start" in marks:
        time -= marks["start"]   # report only the measured region
    return views, scalars, time


def _fold_reductions(loop: ParallelLoop, partials, scalars: dict) -> None:
    """Each loop instance's reduction restarts from the identity (matching
    the parallel backends, which reset the shared scalar per instance);
    ``scalars`` keeps the most recent value."""
    if not loop.reductions:
        return
    if partials is None:
        if loop.extent > loop.start:
            raise ValueError(
                f"{loop.name}: kernel returned no reduction partials")
        # an empty iteration space runs no kernel (as in the backends)
        partials = {red.name: red.identity for red in loop.reductions}
    for red in loop.reductions:
        scalars[red.name] = red.combine(red.identity, partials[red.name])


def sequential_time(program: Program) -> float:
    """Summed compute cost of the measured region (no kernels executed)."""
    total = 0.0
    start_at = 0.0
    for stmt in program.flat_statements():
        if isinstance(stmt, Mark):
            if stmt.label == "start":
                start_at = total
        elif isinstance(stmt, SeqBlock):
            total += stmt.cost_for(program.params)
        elif isinstance(stmt, ParallelLoop):
            total += stmt.chunk_cost(stmt.start, stmt.extent)
            for name in stmt.accumulate:
                total += (stmt.merge_cost_per_iter
                          * program.decl(name).shape[0])
    return total - start_at

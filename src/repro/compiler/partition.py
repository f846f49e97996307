"""Iteration and data partitioning: BLOCK and CYCLIC distributions.

SPF "uses a simple block or cyclic loop distribution mechanism"; XHPF takes
HPF data-distribution directives and derives loop distributions satisfying
the owner-computes rule.  Both needs reduce to the helpers here.

A processor's share of a parallel loop is a :class:`Chunk`.  A backend owns
its partition *policy* (``SpfExecutable.chunk``, ``XhpfExecutable.chunk``;
:func:`loop_chunk` is the backend-free default) and everything else — the
models, the dependence and lint analyses, the sequential oracle — receives
the ``Chunk`` and asks it how to call the kernel, what the call costs and
what an access touches.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.compiler.ir import Span
from repro.sim.cluster import block_range

__all__ = ["block_range", "block_owner", "cyclic_indices", "cyclic_owner",
           "Chunk", "Elements", "SEQ", "loop_chunk"]


def block_owner(extent: int, nprocs: int, index: int) -> int:
    """Owner pid of ``index`` under BLOCK distribution."""
    base, rem = divmod(extent, nprocs)
    cut = rem * (base + 1)
    if index < cut:
        return index // (base + 1)
    return rem + (index - cut) // base if base else nprocs - 1


def cyclic_indices(extent: int, nprocs: int, pid: int,
                   start: int = 0) -> np.ndarray:
    """Indices owned by ``pid`` under CYCLIC distribution over [start, extent)."""
    return Chunk.cyclic(start, extent, nprocs, pid).indices


def cyclic_owner(index: int, nprocs: int) -> int:
    return index % nprocs


_OWNED_ROWS = Span()     # a leading dim that is exactly the chunk's rows


class Elements(NamedTuple):
    """A scattered footprint: C-order flat element indices, each the start
    of a run of ``span`` consecutive elements."""

    flat: object
    span: int = 1


class Chunk(NamedTuple):
    """One processor's share of a parallel loop's iteration space (a value:
    chunks compare and hash by content).

    ``step == 0`` is the block ``[lo, hi)``; ``step > 0`` the cyclic index
    set ``lo, lo + step, ...`` whose last member is ``hi - 1`` — so
    ``bounds`` brackets the iterations either way, which is where ``Point``
    / ``Full`` dims and the rectangle/set analyses resolve a region.
    """

    lo: int
    hi: int
    step: int = 0

    @classmethod
    def cyclic(cls, start: int, extent: int, nprocs: int,
               pid: int = 0) -> "Chunk":
        """``pid``'s share of a CYCLIC distribution over [start, extent)."""
        first = start + (pid - start) % nprocs
        owned = range(first, extent, nprocs)
        return cls(first, owned[-1] + 1 if owned else first, nprocs)

    @classmethod
    def whole(cls, loop) -> "Chunk":
        """The full iteration space as one chunk (sequential execution)."""
        if loop.schedule == "cyclic":
            return cls.cyclic(loop.start, loop.extent, 1)
        return cls(loop.start, loop.extent)

    @property
    def bounds(self) -> tuple:
        return self.lo, self.hi

    @property
    def count(self) -> int:
        return len(range(self.lo, self.hi, self.step or 1))

    @property
    def indices(self) -> np.ndarray:
        """The iterations as an int64 array (what a cyclic kernel takes)."""
        return np.arange(self.lo, self.hi, self.step or 1, dtype=np.int64)

    def run(self, loop, views: dict) -> tuple:
        """Call ``loop``'s kernel on this chunk: ``(partials, cost)``.

        The one place that knows the two kernel calling conventions
        (``kernel(views, lo, hi)`` / ``kernel(views, indices)``); an empty
        chunk runs no kernel and costs nothing.
        """
        lo, hi, step = self
        if hi <= lo:
            return None, 0.0
        if step:
            return loop.kernel(views, self.indices), loop.chunk_cost(*self)
        return loop.kernel(views, lo, hi), loop.chunk_cost(lo, hi)

    def footprint(self, acc, shape: tuple, views=None):
        """What ``acc`` touches on behalf of this chunk, as the DSM backend
        makes it coherent: :class:`Elements` for run-time (irregular)
        footprints and for the owned rows of a cyclic chunk under a plain
        leading ``Span()``, else the region ``acc`` resolves to at
        ``bounds`` (``Access.resolve``'s clipped ``((lo, hi), ...)``)."""
        if acc.irregular:
            args = (self.indices, None) if self.step else self.bounds
            return Elements(acc.region.footprint(views, *args))
        if self.step and acc.region and acc.region[0] == _OWNED_ROWS:
            row_elems = math.prod(shape[1:])
            return Elements(self.indices * row_elems, row_elems)
        return acc.resolve(self.lo, self.hi, shape)

    def pages(self, acc, handle, views=None) -> np.ndarray:
        """:meth:`footprint` lowered to the pages of shared array ``handle``."""
        fp = self.footprint(acc, handle.shape, views)
        if isinstance(fp, Elements):
            return handle.element_pages(fp.flat, fp.span)
        return handle.pages_of(fp)[0]


# sequential statements resolve their regions at the degenerate bounds (0, 0)
SEQ = Chunk(0, 0)


def loop_chunk(loop, pid: int, nprocs: int) -> Chunk:
    """The default policy: ``loop.schedule`` (block or cyclic) by count."""
    if loop.schedule == "cyclic":
        return Chunk.cyclic(loop.start, loop.extent, nprocs, pid)
    lo, hi = block_range(loop.extent - loop.start, nprocs, pid)
    return Chunk(lo + loop.start, hi + loop.start)


"""User-facing shared arrays.

A :class:`SharedArray` binds an :class:`~repro.tmk.pagespace.ArrayHandle` to
one node's :class:`~repro.tmk.protocol.TmkNode`.  Every access splits into
an *ensure* part, which may wait (fault pages in, twin them), and a *view*
part, which never does (the numpy operation on :meth:`raw`):

* :meth:`read_steps` validates the pages under a region,
* :meth:`writable_steps` validates + twins them (then assign into the view),
* :meth:`gather_steps`/:meth:`scatter_write_steps`/:meth:`scatter_add_steps`
  do the same for irregular element sets (by C-order flat index).

Each ensure part is the node's ``ensure_*_steps`` hook: ``None`` when the
pages are already current (the coherence fast path: no generator at all),
else the generator that finishes the work.  A program -- the hand-coded
TreadMarks variants, every compiled one -- writes ``steps =
a.writable_steps(region)`` / ``if steps is not None: yield from steps`` and
then touches ``a.raw()``.  :meth:`read_gen`/:meth:`write_gen` are the ensure
part plus the view in one generator; :meth:`read`/:meth:`write` their
blocking forms for plain-function programs.  Either way the DSM sees
accesses exactly where hardware page faults would occur.
"""

from __future__ import annotations

import numpy as np

from repro.sim.engine import blocking
from repro.tmk.pagespace import ArrayHandle
from repro.tmk.protocol import TmkNode

__all__ = ["SharedArray"]


class SharedArray:
    """One shared array as seen from one processor."""

    def __init__(self, node: TmkNode, handle: ArrayHandle):
        self.node = node
        self.proc = node.proc
        self.handle = handle
        self._view = node.view(handle)
        self._full_region = tuple(slice(None) for _ in handle.shape)

    # ------------------------------------------------------------------ #

    @property
    def shape(self) -> tuple:
        return self.handle.shape

    @property
    def dtype(self) -> np.dtype:
        return self.handle.dtype

    @property
    def name(self) -> str:
        return self.handle.name

    def read_steps(self, region=..., source=None):
        """Validate pages under ``region`` before a read: ``None`` when all
        are valid, else the generator that faults the rest in."""
        return self.node.ensure_read_steps(
            self.handle, self._norm(region),
            source=source or f"{self.name}.read")

    def read_gen(self, region=..., source=None):
        """Validate pages under ``region`` and return the local view of it."""
        region = self._norm(region)
        steps = self.read_steps(region, source)
        if steps is not None:
            yield from steps
        return self._view[region]

    read = blocking(read_gen)

    def writable_steps(self, region=..., source=None):
        """Validate + twin pages under ``region`` before assigning into it:
        ``None`` when nothing is left to do, else the generator that does
        it."""
        return self.node.ensure_write_steps(
            self.handle, self._norm(region),
            source=source or f"{self.name}.writable")

    def write_gen(self, region, values, source=None):
        """Assign ``values`` into ``region`` with write detection."""
        region = self._norm(region)
        steps = self.writable_steps(region, source or f"{self.name}.write")
        if steps is not None:
            yield from steps
        self._view[region] = values

    write = blocking(write_gen)

    def raw(self) -> np.ndarray:
        """The local view, with no coherence action: the view part of an
        access whose ensure part has run."""
        return self._view

    # ------------------------------------------------------------------ #
    # irregular access (indirection arrays)

    def gather_steps(self, flat_indices, source=None):
        """Validate the pages holding scattered elements before reading
        them as ``raw().reshape(-1)[flat_indices]``."""
        return self.node.ensure_read_elements_steps(
            self.handle, np.asarray(flat_indices, dtype=np.int64),
            source=source or f"{self.name}.gather")

    def scatter_write_steps(self, flat_indices, source=None):
        """Validate + twin the pages holding scattered elements before
        assigning ``raw().reshape(-1)[flat_indices]``."""
        return self.node.ensure_write_elements_steps(
            self.handle, np.asarray(flat_indices, dtype=np.int64),
            source=source or f"{self.name}.scatter_write")

    def scatter_add_steps(self, flat_indices, source=None):
        """Validate + twin before accumulating into scattered elements
        (read-modify-write, e.g. ``np.add.at(raw().reshape(-1), ...)``)."""
        return self.node.ensure_write_elements_steps(
            self.handle, np.asarray(flat_indices, dtype=np.int64),
            source=source or f"{self.name}.scatter_add")

    # ------------------------------------------------------------------ #

    def _norm(self, region):
        if region is Ellipsis:
            return self._full_region
        if not isinstance(region, tuple):
            region = (region,)
        return region

    def __repr__(self) -> str:
        return (f"SharedArray({self.handle.name!r}, shape={self.shape}, "
                f"dtype={self.dtype}, node={self.node.pid})")

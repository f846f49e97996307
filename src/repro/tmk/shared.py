"""User-facing shared arrays.

A :class:`SharedArray` binds an :class:`~repro.tmk.pagespace.ArrayHandle` to
one node's :class:`~repro.tmk.protocol.TmkNode`.  Access methods pair the
real numpy operation with the coherence hook at page granularity:

* :meth:`read` validates the touched pages and returns a view,
* :meth:`writable` validates + twins the touched pages and returns a view
  the caller may assign into,
* :meth:`gather`/:meth:`scatter_*` do the same for irregular element sets.

The *hand-coded TreadMarks* application variants use these directly (the
blocking forms, from their own threads); the SPF backend validates its
analysed loop footprints through the node's ``ensure_*_steps`` hooks and
reads and writes its runtime scalars with :meth:`read_gen`/:meth:`write_gen`,
the generators :meth:`read`/:meth:`write` are the blocking forms of.  Either
way the DSM sees accesses exactly where hardware page faults would occur.
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

    def read_gen(self, region=..., source=None):
        """Validate pages under ``region`` and return the local view of it."""
        region = self._norm(region)
        steps = self.node.ensure_read_steps(
            self.handle, region, source=source or f"{self.name}.read")
        if steps is not None:
            yield from steps
        return self._view[region]

    read = blocking(read_gen)

    def writable(self, region=..., source=None) -> np.ndarray:
        """Validate + twin pages under ``region``; returns an assignable view."""
        region = self._norm(region)
        self.node.ensure_write(self.handle, region,
                               source=source or f"{self.name}.writable")
        return self._view[region]

    def write_gen(self, region, values, source=None):
        """Assign ``values`` into ``region`` with write detection."""
        region = self._norm(region)
        steps = self.node.ensure_write_steps(
            self.handle, region, source=source or f"{self.name}.write")
        if steps is not None:
            yield from steps
        self._view[region] = values

    write = blocking(write_gen)

    def raw(self) -> np.ndarray:
        """The uncoherent local view (tests and the runtime use this)."""
        return self._view

    # ------------------------------------------------------------------ #
    # irregular access (indirection arrays)

    def gather(self, flat_indices, source=None) -> np.ndarray:
        """Read scattered elements (by C-order flat index)."""
        idx = np.asarray(flat_indices, dtype=np.int64)
        self.node.ensure_read_elements(self.handle, idx,
                                       source=source or f"{self.name}.gather")
        return self._view.reshape(-1)[idx]

    def scatter_write(self, flat_indices, values, source=None) -> None:
        """Write scattered elements (by C-order flat index)."""
        idx = np.asarray(flat_indices, dtype=np.int64)
        self.node.ensure_write_elements(
            self.handle, idx,
            source=source or f"{self.name}.scatter_write")
        self._view.reshape(-1)[idx] = values

    def scatter_add(self, flat_indices, values, source=None) -> None:
        """Accumulate into scattered elements (read-modify-write)."""
        idx = np.asarray(flat_indices, dtype=np.int64)
        self.node.ensure_write_elements(
            self.handle, idx, source=source or f"{self.name}.scatter_add")
        np.add.at(self._view.reshape(-1), idx, values)

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

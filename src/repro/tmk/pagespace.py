"""The global shared address space: allocation and region→page mathematics.

The shared address space is a flat range of bytes divided into fixed-size
pages.  Allocation is static (decided before a run, as with Fortran common
blocks "loaded in a standard location"): every processor computes the same
layout, so an :class:`ArrayHandle` is meaningful cluster-wide while the
*backing bytes* are per-processor copies managed by the coherence protocol.

The page mathematics here answer the one question the DSM needs: *which
pages does this access touch?*  Regions are numpy basic-indexing tuples
(ints and slices) against a C-order array; indirect (irregular) accesses
supply explicit element indices instead.  Fast paths cover the common cases
(contiguous row blocks; per-row spans) without per-element Python loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

import numpy as np
from numpy import count_nonzero

from repro.sim.machine import PAGE_SIZE

__all__ = ["ArrayHandle", "SharedSpace", "Normalized", "normalize_region",
           "region_nbytes", "merge_spans"]

Region = tuple  # tuple of ints/slices

_PAGES_CACHE_LIMIT = 1024   # distinct footprints memoized per handle
_LAYOUT_MEMO_PAGES = 1 << 16  # page numbers held by the process-wide memo


class _LayoutMemo:
    """Process-wide region -> pages memo, keyed by layout: ``(offset,
    shape, itemsize, normalized region)``.

    A run allocates fresh handles, so each handle's own memo starts empty;
    this one sits underneath them and keeps the page math of a layout
    across runs (and across a program cache's evictions).  It is pure —
    the pages of a region depend only on the key — and counts nothing:
    ``region_cache_hits`` are the handle memo's.  Each entry is charged its
    pages plus one; past :data:`_LAYOUT_MEMO_PAGES` the memo starts over,
    and a region larger than that is never kept."""

    __slots__ = ("entries", "pages")

    def __init__(self) -> None:
        self.entries: dict = {}
        self.pages = 0

    def put(self, key, pages: np.ndarray) -> None:
        cost = pages.size + 1
        if cost > _LAYOUT_MEMO_PAGES:
            return
        if self.pages + cost > _LAYOUT_MEMO_PAGES:
            self.clear()
        self.entries[key] = pages
        self.pages += cost

    def clear(self) -> None:
        self.entries.clear()
        self.pages = 0


LAYOUT_MEMO = _LayoutMemo()


@dataclass(frozen=True)
class ArrayHandle:
    """A statically-allocated shared array: name, placement, and shape."""

    name: str
    offset: int        # byte offset in the shared space (page aligned)
    shape: tuple
    dtype: np.dtype
    space_id: int = 0
    # region -> pages memo (pure: the layout is static, so a normalized
    # region always maps to the same pages).  Excluded from eq/hash/repr;
    # handles are shared by every node of a run, which is fine for a memo.
    _pages_cache: dict = field(default_factory=dict, compare=False,
                               repr=False)

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    @property
    def nbytes(self) -> int:
        return math.prod(self.shape) * self.itemsize

    @property
    def first_page(self) -> int:
        return self.offset // PAGE_SIZE

    @property
    def last_page(self) -> int:
        return (self.offset + self.nbytes - 1) // PAGE_SIZE

    def pages(self) -> range:
        """All pages this array touches."""
        return range(self.first_page, self.last_page + 1)

    # ------------------------------------------------------------------ #
    # region -> byte spans -> pages

    def _strides(self) -> tuple:
        """C-order strides in bytes."""
        strides = []
        acc = self.itemsize
        for dim in reversed(self.shape):
            strides.append(acc)
            acc *= dim
        return tuple(reversed(strides))

    def region_pages(self, region: Region) -> np.ndarray:
        """Sorted unique page numbers touched by ``region``.

        ``region`` is a tuple of ints/slices, one per dimension (missing
        trailing dimensions mean "all of them", as in numpy).  The result is
        memoized per normalized region (and marked read-only); repeated
        identical footprints — every time-loop iteration — skip the page
        math entirely.
        """
        pages, _cached = self.pages_of(normalize_region(region, self.shape))
        return pages

    def pages_of(self, nregion: tuple) -> tuple:
        """(pages, cache_hit) for an *already-normalized* region.  A miss
        of this handle's memo is answered from :data:`LAYOUT_MEMO` when
        another handle of the same layout has asked before."""
        pages = self._pages_cache.get(nregion)
        if pages is not None:
            return pages, True
        key = (self.offset, self.shape, self.dtype.itemsize, nregion)
        pages = LAYOUT_MEMO.entries.get(key)
        if pages is None:
            pages = self._compute_region_pages(nregion)
            pages.setflags(write=False)
            LAYOUT_MEMO.put(key, pages)
        if len(self._pages_cache) >= _PAGES_CACHE_LIMIT:
            self._pages_cache.clear()
        self._pages_cache[nregion] = pages
        return pages, False

    def _compute_region_pages(self, region: tuple) -> np.ndarray:
        return _pages_of_spans(*self._region_spans(region))

    def _region_spans(self, region: tuple) -> tuple:
        """``(starts, span)``: the equal-length byte spans ``[s, s + span)``
        a normalized region covers, one per combination of indices outside
        its innermost contiguous run."""
        strides = self._strides()
        # Determine the innermost dimension from which the region is a full
        # contiguous run; everything inside collapses into one span length.
        span = self.itemsize
        d = len(self.shape) - 1
        while d >= 0:
            lo, hi = region[d]
            if lo == 0 and hi == self.shape[d]:
                span *= self.shape[d]
                d -= 1
            else:
                span *= (hi - lo)
                # offset of this partial dim folds into the base offsets
                break
        if d < 0:
            # whole array
            return np.array([self.offset], dtype=np.int64), self.nbytes
        # Offsets of each "row" (combination of indices in dims [0, d)) plus
        # the partial dim d start.
        lo_d, _hi_d = region[d]
        base = self.offset + lo_d * strides[d]
        outer_offsets = np.array([0], dtype=np.int64)
        for k in range(d):
            lo, hi = region[k]
            idx = np.arange(lo, hi, dtype=np.int64) * strides[k]
            outer_offsets = (outer_offsets[:, None] + idx[None, :]).ravel()
        return base + outer_offsets, span

    def _element_spans(self, flat_indices, elem_span: int) -> tuple:
        """``(starts, span)`` of scattered elements, each widened to
        ``elem_span`` consecutive elements."""
        idx = np.asarray(flat_indices, dtype=np.int64)
        return self.offset + idx * self.itemsize, elem_span * self.itemsize

    def element_pages(self, flat_indices: Union[np.ndarray, Sequence[int]],
                      elem_span: int = 1) -> np.ndarray:
        """Pages touched by scattered elements (irregular/indirect access).

        ``flat_indices`` are C-order flat element indices; ``elem_span``
        widens each access to that many consecutive elements.
        """
        return _pages_of_spans(*self._element_spans(flat_indices, elem_span))

    # ------------------------------------------------------------------ #
    # region -> byte runs (exact footprints, for the race detector)

    def region_byte_runs(self, region: Region) -> np.ndarray:
        """Merged global byte intervals touched by ``region``.

        Returns a ``(k, 2)`` int64 array of ``[start, stop)`` pairs in the
        shared space, sorted and non-overlapping.  Where :meth:`region_pages`
        rounds to page granularity for the coherence protocol, this keeps
        the exact bytes — the race detector needs them to tell a true
        overlap from mere false sharing within a page.
        """
        return merge_spans(*self._region_spans(
            normalize_region(region, self.shape)))

    def element_byte_runs(self, flat_indices: Union[np.ndarray, Sequence[int]],
                          elem_span: int = 1) -> np.ndarray:
        """Merged ``[start, stop)`` byte intervals of scattered elements."""
        return merge_spans(*self._element_spans(flat_indices, elem_span))


def merge_spans(starts: np.ndarray, span: int) -> np.ndarray:
    """Merge equal-length spans ``[s, s+span)`` into sorted disjoint runs.

    Returns a ``(k, 2)`` int64 array of ``[start, stop)`` intervals;
    touching spans coalesce (``[0, 4)`` + ``[4, 8)`` -> ``[0, 8)``).
    """
    if starts.size == 0 or span <= 0:
        return np.empty((0, 2), dtype=np.int64)
    s = np.sort(np.asarray(starts, dtype=np.int64))
    run_stop = np.maximum.accumulate(s + span)
    breaks = np.nonzero(s[1:] > run_stop[:-1])[0] + 1
    first = np.concatenate(([0], breaks))
    last = np.concatenate((breaks, [s.size]))
    return np.stack([s[first], run_stop[last - 1]], axis=1)


def _pages_of_spans(starts: np.ndarray, span: int) -> np.ndarray:
    """Union of pages covered by ``[s, s+span)`` for each ``s`` in ``starts``."""
    if starts.size == 0 or span <= 0:
        return np.empty(0, dtype=np.int64)
    first = starts // PAGE_SIZE
    last = (starts + span - 1) // PAGE_SIZE
    if count_nonzero(last - first):
        # Each span covers at most `width` pages (all have one length):
        # enumerate that many and mask the overshoot.
        width = (span - 1) // PAGE_SIZE + 2
        grid = first[:, None] + np.arange(width, dtype=np.int64)[None, :]
        first = grid[grid <= last[:, None]]
    return _sorted_unique(first)


def _sorted_unique(pages: np.ndarray) -> np.ndarray:
    """``np.unique`` of a fresh 1-D page array, sorted in place: the same
    result without ``np.unique``'s Python-level dispatch, which costs more
    than the work on the few dozen pages of one access."""
    pages.sort()
    if pages.size > 1:
        keep = np.empty(pages.size, dtype=bool)
        keep[0] = True
        np.not_equal(pages[1:], pages[:-1], out=keep[1:])
        pages = pages[keep]
    return pages


class Normalized(tuple):
    """A region already in :func:`normalize_region`'s ``((lo, hi), ...)``
    form, which normalizing again returns as is.  A caller that asks for
    the same footprint many times (a compiled loop, every iteration)
    normalizes it once and hands the DSM this instead."""

    __slots__ = ()


def normalize_region(region, shape: tuple) -> tuple:
    """Canonicalize a numpy-style basic index into ``((lo, hi), ...)`` per dim.

    Ints become single-element ranges; missing trailing dims become full
    ranges; negative indices wrap; steps other than 1 are rejected (the
    applications and compiler only generate unit-stride regions — cyclic
    distributions are expressed as per-row index lists instead).  A
    :class:`Normalized` region is returned unchanged.
    """
    if type(region) is Normalized:
        return region
    if not isinstance(region, tuple):
        region = (region,)
    if len(region) > len(shape):
        raise ValueError(f"region rank {len(region)} exceeds array rank {len(shape)}")
    out = []
    for d, dim in enumerate(shape):
        if d < len(region):
            r = region[d]
        else:
            r = slice(None)
        if isinstance(r, (int, np.integer)):
            i = int(r)
            if i < 0:
                i += dim
            if not (0 <= i < dim):
                raise IndexError(f"index {r} out of bounds for dim of size {dim}")
            out.append((i, i + 1))
        elif isinstance(r, slice):
            if r.step not in (None, 1):
                raise ValueError("strided regions are not supported; "
                                 "use element_pages for scattered access")
            lo, hi, _ = r.indices(dim)
            if hi < lo:
                hi = lo
            out.append((lo, hi))
        else:
            raise TypeError(f"unsupported region component {r!r}")
    return tuple(out)


def region_nbytes(region, shape: tuple, itemsize: int) -> int:
    """Payload size of a region in bytes."""
    norm = normalize_region(region, shape)
    n = 1
    for lo, hi in norm:
        n *= (hi - lo)
    return n * itemsize


class SharedSpace:
    """Static allocator for the global shared address space.

    Every allocation starts on a page boundary (the SPF compiler "pads
    shared arrays to page boundaries in order to reduce false sharing";
    hand-coded TreadMarks programs get page-aligned allocations from
    ``Tmk_malloc`` as well), so two arrays never share a page.
    """

    def __init__(self):
        self._cursor = 0
        self.arrays: dict[str, ArrayHandle] = {}

    def alloc(self, name: str, shape, dtype) -> ArrayHandle:
        if name in self.arrays:
            raise ValueError(f"shared array {name!r} already allocated")
        dtype = np.dtype(dtype)
        shape = tuple(int(s) for s in (shape if isinstance(shape, (tuple, list)) else (shape,)))
        if any(s <= 0 for s in shape):
            raise ValueError(f"bad shape {shape}")
        self._cursor = _round_up(self._cursor, PAGE_SIZE)
        handle = ArrayHandle(name=name, offset=self._cursor, shape=shape,
                             dtype=dtype)
        self._cursor += handle.nbytes
        self.arrays[name] = handle
        return handle

    @property
    def nbytes(self) -> int:
        """Total allocated span, rounded up to whole pages."""
        return _round_up(self._cursor, PAGE_SIZE)

    @property
    def npages(self) -> int:
        return self.nbytes // PAGE_SIZE

    def __getitem__(self, name: str) -> ArrayHandle:
        return self.arrays[name]

    def __contains__(self, name: str) -> bool:
        return name in self.arrays

    def handles(self) -> Iterable[ArrayHandle]:
        return self.arrays.values()


def _round_up(x: int, align: int) -> int:
    return (x + align - 1) // align * align

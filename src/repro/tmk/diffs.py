"""Twins and diffs: the multiple-writer merge machinery.

A *twin* is a copy of a page taken at the first write after a
synchronization point.  The protocol keeps it as a read-only, bytes-backed
array (``np.frombuffer``; every all-zero page shares one), so nothing here
may write into a twin: :func:`make_diff` only reads it.  A *diff* is a
run-length encoding of the words that differ between the current page and
its twin — exactly the paper's definition: "a runlength encoding of the
modifications made to a page, generated by comparing the page to a copy
saved prior to the modifications."

Pages are ``numpy`` ``uint8`` vectors compared in 4-byte words, like
TreadMarks (Fortran ``REAL`` words).  A diff is a list of ``(offset,
payload)`` runs: maximal spans of changed words, whose bounds are where the
changed-word mask flips (``changed[i] != changed[i - 1]``), reading an
unchanged word before the page and after it.  Every payload is a
``memoryview`` slice of *one* snapshot of the changed span, so it stays
stable while the live page keeps mutating.  :func:`apply_diff` copies each
run through ``memoryview(page)[off:end]``.  Concurrent writers' diffs are
disjoint, so they apply in any order; ordered diffs apply oldest first,
which the protocol layer guarantees.

The wire size rule (changed words × :data:`WORD` plus runs ×
:data:`RUN_HEADER_BYTES`, runs counted from the same flips) is
:func:`mask_diff_nbytes`; the analytic model, whose twins are changed-word
masks, takes its diff sizes from it (``compiler.model._MNode``).  A diff
:func:`make_diff` returns carries that size as :attr:`Diff.nbytes`,
computed once from the run bounds it already has; :func:`diff_nbytes` is
the same number by walking the runs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Diff", "make_diff", "apply_diff", "apply_diffs", "diff_nbytes",
           "mask_diff_nbytes", "WORD"]

WORD = 4
"""Comparison granularity in bytes (TreadMarks diffs word-compare)."""

RUN_HEADER_BYTES = 8
"""Wire overhead per run: offset + length fields."""


class Diff(list):
    """A run list ``[(offset, payload), ...]`` that knows its wire size.

    Joining two diffs (a same-interval extension) adds their sizes; any
    other list operation gives a plain list."""

    __slots__ = ("nbytes",)

    def __init__(self, runs=(), nbytes: int = 0):
        super().__init__(runs)
        self.nbytes = nbytes

    def __add__(self, other: "Diff") -> "Diff":
        return Diff(list.__add__(self, other), self.nbytes + other.nbytes)


def _flips(changed: np.ndarray) -> np.ndarray:
    """``flips[i]`` is true where word ``i + 1`` starts or ends a run."""
    return changed[1:] != changed[:-1]


def mask_diff_nbytes(changed: np.ndarray) -> int:
    """``diff_nbytes`` of the diff whose changed-word mask is ``changed``
    (every run has two bounds, each a flip or a changed end word)."""
    words = int(np.count_nonzero(changed))
    if not words:
        return 0
    runs = (int(np.count_nonzero(_flips(changed)))
            + bool(changed[0]) + bool(changed[-1])) // 2
    return words * WORD + runs * RUN_HEADER_BYTES


def make_diff(current: np.ndarray, twin: np.ndarray) -> Diff:
    """Return the run-length encoding of ``current - twin``.

    Both arguments are ``uint8`` vectors of equal length (one page); an
    empty diff when the page is unmodified.  A ``memoryview`` payload
    compares and measures like the ``bytes`` it stands for.
    """
    if current.shape != twin.shape:
        raise ValueError("page/twin shape mismatch")
    n = current.size
    if n % WORD:
        raise ValueError(f"page size {n} not a multiple of word size {WORD}")
    # the changed-word mask between two unchanged sentinel words: every run
    # then has two flips, its first word and the word after its last
    padded = np.zeros(n // WORD + 2, dtype=bool)
    np.not_equal(current.view(np.uint32), twin.view(np.uint32),
                 out=padded[1:-1])
    bounds = (padded[1:] != padded[:-1]).nonzero()[0].tolist()
    if not bounds:
        return Diff()
    starts, ends = bounds[::2], bounds[1::2]
    lo = bounds[0] * WORD
    snap = memoryview(current[lo:bounds[-1] * WORD].tobytes())
    return Diff([(s * WORD, snap[s * WORD - lo:e * WORD - lo])
                 for s, e in zip(starts, ends)],
                (sum(ends) - sum(starts)) * WORD
                + len(starts) * RUN_HEADER_BYTES)


def apply_diff(page: np.ndarray, diff: Diff) -> None:
    """Patch ``diff``'s runs into ``page`` (in place)."""
    size = page.size
    dst = memoryview(page)
    for off, data in diff:
        end = off + len(data)
        if off < 0 or end > size:
            raise ValueError(f"diff run [{off}:{end}) exceeds page size {size}")
        dst[off:end] = data


def apply_diffs(page: np.ndarray, diffs) -> None:
    """Patch a sequence of diffs into ``page``, oldest first (later
    diffs win on overlapping words)."""
    for diff in diffs:
        apply_diff(page, diff)


def diff_nbytes(diff: Diff) -> int:
    """Wire size of a diff: run payloads plus per-run headers."""
    return sum(len(data) + RUN_HEADER_BYTES for _off, data in diff)

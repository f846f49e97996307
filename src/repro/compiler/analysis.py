"""Region algebra over the IR: bounding rectangles of affine accesses.

* :func:`access_rect` — the concrete index rectangle a region expression
  resolves to for given chunk bounds (per-dimension half-open intervals);
* :func:`rects_overlap` — do two rectangles share an element;
* :func:`chunk_rects` — the rectangles one processor's
  :class:`~repro.compiler.partition.Chunk` touches (what
  ``report.footprint_report`` prints; a cyclic chunk shows as its bounding
  interval).

The cross-processor dependence test that decides loop fusion is the exact
chunk-set one, :func:`repro.compiler.depend.loops_fusable_exact`.
"""

from __future__ import annotations

from typing import Optional

from repro.compiler.ir import Access, ParallelLoop, Program
from repro.compiler.partition import Chunk

__all__ = ["access_rect", "rects_overlap", "chunk_rects"]

Rect = tuple  # tuple of (lo, hi) per dimension


def access_rect(acc: Access, lo: int, hi: int, shape: tuple) -> Optional[Rect]:
    """Bounding rectangle of an affine access for chunk [lo, hi).

    Returns ``None`` for irregular accesses (unknown footprint).
    """
    if acc.irregular:
        return None
    idx = acc.resolve(lo, hi, shape)
    rect = []
    for comp, extent in zip(idx, shape):
        if isinstance(comp, slice):
            rect.append((comp.start, comp.stop))
        else:
            rect.append((comp, comp + 1))
    return tuple(rect)


def rects_overlap(a: Rect, b: Rect) -> bool:
    """Do two rectangles share any element?

    Invariant: a dimension with zero extent (``hi <= lo``) denotes an
    *empty* footprint, and an empty footprint overlaps nothing — not even
    another empty or enclosing dimension.  This matters because
    :func:`access_rect` mixes dim kinds in one rectangle: ``Point`` dims
    arrive as one-element ``(c, c + 1)`` intervals, ``Full`` dims as
    ``(0, extent)``, and clipped ``Span`` dims may arrive empty (e.g. a
    halo entirely outside the array).  A rect with any empty dim therefore
    touches no element and must report no overlap regardless of the other
    dims.  Extra trailing dims on either rect are ignored (`zip`
    semantics), matching ``Access.resolve``'s implicit-full padding.
    """
    for (alo, ahi), (blo, bhi) in zip(a, b):
        if ahi <= alo or bhi <= blo:
            return False
        if ahi <= blo or bhi <= alo:
            return False
    return True


def chunk_rects(loop: ParallelLoop, which: str, chunk: Chunk,
                program: Program) -> Optional[dict]:
    """``{array: [rects]}`` touched by one processor's ``chunk`` of ``loop``.

    ``which`` is "reads" or "writes".  Returns ``None`` if any access is
    irregular, ``{}`` for an empty chunk.
    """
    out: dict = {}
    if not chunk.count:
        return out
    for acc in getattr(loop, which):
        if acc.irregular:
            return None
        shape = program.decl(acc.array).shape
        out.setdefault(acc.array, []).append(
            access_rect(acc, *chunk.bounds, shape))
    return out

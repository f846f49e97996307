"""Tests for the compiler's one footprint-overlap algebra
(``repro.compiler.depend``: ``Interval``/``Strided`` per-dimension index
sets, ``dim_sets_intersect``, ``chunk_sets``, ``sets_conflict``) and the
fusion test built on it (``depend.loops_fusable_exact``).

The rectangle functions these tests were first written against
(``access_rect``, ``rects_overlap``, ``chunk_rects``) are gone; each test
keeps its name and feeds the same edge case to the surviving algebra.  The
Hypothesis properties at the end check the algebra against a brute-force
boolean mask of what each access resolves to.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import depend
from repro.compiler.depend import (Interval, Strided, chunk_sets,
                                   sets_conflict)
from repro.compiler.depend import loops_fusable_exact as loops_fusable
from repro.compiler.ir import (Access, ArrayDecl, Full, Irregular,
                               ParallelLoop, Point, Program, Reduction, Span)
from repro.compiler.partition import Chunk, loop_chunk
from repro.compiler.report import footprint_report


def make_prog(loops, shape=(64, 16)):
    return Program("p", arrays=[ArrayDecl("a", shape), ArrayDecl("b", shape)],
                   body=list(loops))


def kern(v, lo, hi):
    return None


def access_sets(acc, lo, hi, shape=(64, 16)):
    """The index sets ``chunk_sets`` gives one access on the block
    ``[lo, hi)`` (``None`` when irregular)."""
    loop = ParallelLoop("l", shape[0], kern, reads=[acc])
    sets = chunk_sets(loop, "reads", Chunk(lo, hi), make_prog([loop], shape))
    return None if sets is None else sets[acc.array][0]


def overlap(a, b) -> bool:
    """Do two footprints, each ``((lo, hi), ...)`` per dimension, of one
    array share an element?"""
    def as_sets(dims):
        return {"a": [tuple(Interval(lo, hi) for lo, hi in dims)]}
    return sets_conflict(as_sets(a), as_sets(b))


def chunk_rects(loop, which, pid, nprocs, prog):
    return chunk_sets(loop, which, loop_chunk(loop, pid, nprocs), prog)


def test_access_rect_affine():
    acc = Access("a", (Span(-1, 1), Full()))
    assert access_sets(acc, 8, 16) == (Interval(7, 17), Interval(0, 16))


def test_access_rect_point():
    acc = Access("a", (Point(5),))
    assert access_sets(acc, 0, 1) == (Interval(5, 6), Interval(0, 16))


def test_access_rect_irregular_is_none():
    acc = Access("a", Irregular(lambda v, lo, hi: None))
    assert access_sets(acc, 0, 8, (64,)) is None


def test_rects_overlap_cases():
    assert overlap(((0, 4), (0, 4)), ((3, 8), (0, 4)))
    assert not overlap(((0, 4), (0, 4)), ((4, 8), (0, 4)))
    assert not overlap(((0, 4), (0, 2)), ((0, 4), (2, 4)))
    # empty footprints never overlap
    assert not overlap(((2, 2), (0, 4)), ((0, 4), (0, 4)))


def test_chunk_rects_block():
    loop = ParallelLoop("l", 64, kern,
                        reads=[Access("a", (Span(-1, 1), Full()))])
    prog = make_prog([loop])
    rects = chunk_rects(loop, "reads", 1, 4, prog)
    assert rects == {"a": [(Interval(15, 33), Interval(0, 16))]}
    assert "p1: reads a[15:33 0:16]" in footprint_report(loop, 4, prog)


def test_chunk_rects_cyclic_bounding_interval():
    loop = ParallelLoop("l", 64, kern, schedule="cyclic", start=10,
                        writes=[Access("a", (Span(), Full()))])
    prog = make_prog([loop])
    (rows, cols), = chunk_rects(loop, "writes", 2, 4, prog)["a"]
    # proc 2 owns {10, 14, .., 62}: the first index >= 10 with idx%4 == 2
    assert rows == Strided(start=10, step=4, count=14, width=1)
    assert cols == Interval(0, 16)
    # the report prints the rows as their bounding interval in the array
    assert "p2: reads -  writes a[10:63 0:16]" in footprint_report(
        loop, 4, prog)


def test_chunk_rects_irregular_returns_none():
    loop = ParallelLoop("l", 64, kern,
                        reads=[Access("a", Irregular(lambda v, lo, hi: None))])
    prog = make_prog([loop])
    assert chunk_rects(loop, "reads", 0, 4, prog) is None


def test_fusable_independent_loops():
    """Loop writing a, loop writing b, chunk-aligned: fusable."""
    l1 = ParallelLoop("l1", 64, kern,
                      reads=[Access("a", (Span(), Full()))],
                      writes=[Access("a", (Span(), Full()))])
    l2 = ParallelLoop("l2", 64, kern,
                      reads=[Access("b", (Span(), Full()))],
                      writes=[Access("b", (Span(), Full()))])
    prog = make_prog([l1, l2])
    assert loops_fusable(l1, l2, 4, prog)


def test_fusable_same_chunks_same_array():
    """Producer/consumer on identical chunks: no cross-processor edge."""
    l1 = ParallelLoop("l1", 64, kern, writes=[Access("a", (Span(), Full()))])
    l2 = ParallelLoop("l2", 64, kern, reads=[Access("a", (Span(), Full()))],
                      writes=[Access("b", (Span(), Full()))])
    prog = make_prog([l1, l2])
    assert loops_fusable(l1, l2, 4, prog)


def test_not_fusable_halo_consumer():
    """The second loop reads a halo: neighbours' writes flow in."""
    l1 = ParallelLoop("l1", 64, kern, writes=[Access("a", (Span(), Full()))])
    l2 = ParallelLoop("l2", 64, kern,
                      reads=[Access("a", (Span(-1, 1), Full()))],
                      writes=[Access("b", (Span(), Full()))])
    prog = make_prog([l1, l2])
    assert not loops_fusable(l1, l2, 4, prog)


def test_not_fusable_anti_dependence():
    """Jacobi's two phases: the copy writes what neighbours still read."""
    stencil = ParallelLoop("stencil", 64, kern,
                           reads=[Access("a", (Span(-1, 1), Full()))],
                           writes=[Access("b", (Span(), Full()))])
    copy = ParallelLoop("copy", 64, kern,
                        reads=[Access("b", (Span(), Full()))],
                        writes=[Access("a", (Span(), Full()))])
    prog = make_prog([stencil, copy])
    assert not loops_fusable(stencil, copy, 4, prog)


def test_not_fusable_with_reductions():
    l1 = ParallelLoop("l1", 64, kern, reductions=[Reduction("r")])
    l2 = ParallelLoop("l2", 64, kern)
    prog = make_prog([l1, l2])
    assert not loops_fusable(l1, l2, 4, prog)


def test_not_fusable_with_irregular():
    l1 = ParallelLoop("l1", 64, kern,
                      reads=[Access("a", Irregular(lambda v, lo, hi: None))])
    l2 = ParallelLoop("l2", 64, kern)
    prog = make_prog([l1, l2])
    assert not loops_fusable(l1, l2, 4, prog)


def test_not_fusable_with_accumulate():
    l1 = ParallelLoop("l1", 64, kern, accumulate=["a"])
    l2 = ParallelLoop("l2", 64, kern)
    prog = make_prog([l1, l2])
    assert not loops_fusable(l1, l2, 4, prog)


def test_fusable_single_processor_always():
    """With one processor there are no cross-processor edges."""
    l1 = ParallelLoop("l1", 64, kern, writes=[Access("a", (Span(), Full()))])
    l2 = ParallelLoop("l2", 64, kern,
                      reads=[Access("a", (Span(-2, 2), Full()))],
                      writes=[Access("b", (Span(), Full()))])
    prog = make_prog([l1, l2])
    assert loops_fusable(l1, l2, 1, prog)


# ---------------------------------------------------------------------- #
# partition edge cases (shared by backends and the lint pass)

def test_loop_chunk_block_covers_iteration_space():
    loop = ParallelLoop("l", 13, kern, start=2)
    covered = []
    for pid in range(4):
        covered.extend(loop_chunk(loop, pid, 4).indices.tolist())
    assert covered == list(range(2, 13))


def test_loop_chunk_cyclic_partitions_exactly():
    loop = ParallelLoop("l", 14, kern, schedule="cyclic", start=3)
    owned = [i for pid in range(4)
             for i in loop_chunk(loop, pid, 4).indices.tolist()]
    assert sorted(owned) == list(range(3, 14))


def test_loop_chunk_empty_cyclic_tail():
    """More processors than remaining iterations: some own nothing."""
    loop = ParallelLoop("l", 4, kern, schedule="cyclic", start=2)
    sizes = [loop_chunk(loop, pid, 4).count for pid in range(4)]
    assert sorted(sizes, reverse=True) == [1, 1, 0, 0]


def test_chunk_rects_empty_cyclic_chunk_is_empty_dict():
    loop = ParallelLoop("l", 4, kern, schedule="cyclic", start=3,
                        writes=[Access("a", (Span(), Full()))])
    prog = make_prog([loop])
    # only one iteration remains; the other three processors touch nothing
    nonempty = [pid for pid in range(4)
                if chunk_rects(loop, "writes", pid, 4, prog)]
    assert len(nonempty) == 1


def test_chunk_rects_zero_extent_block_chunks():
    """start == extent: every processor's block chunk is empty."""
    loop = ParallelLoop("l", 8, kern, start=8,
                        writes=[Access("a", (Span(), Full()))])
    prog = make_prog([loop])
    assert all(chunk_rects(loop, "writes", pid, 4, prog) == {}
               for pid in range(4))


def test_access_rect_negative_point_wraps_once():
    acc = Access("a", (Point(-1),))
    assert access_sets(acc, 0, 1) == (Interval(63, 64), Interval(0, 16))


# ---------------------------------------------------------------------- #
# overlap edge cases: empty / point / full dim combinations (an empty
# dimension makes the whole footprint empty; dim_sets_intersect's docstring)

def test_rects_overlap_empty_dim_beats_point_dim():
    """A clipped-empty Span dim next to a (c, c+1) Point dim: the empty
    dim makes the whole footprint empty, so even identical point dims
    must not report overlap."""
    assert not overlap(((5, 5), (3, 4)), ((5, 5), (3, 4)))
    assert not overlap(((5, 5), (3, 4)), ((0, 64), (3, 4)))


def test_rects_overlap_empty_inside_enclosing_full():
    """An empty dim does not overlap an enclosing full dim."""
    assert not overlap(((7, 7),), ((0, 64),))
    assert not overlap(((0, 64),), ((7, 7),))
    assert not overlap(((7, 7),), ((7, 7),))


def test_rects_overlap_inverted_extent_is_empty():
    """hi < lo (not just ==) also denotes empty, never a wrapped range."""
    assert not overlap(((8, 2),), ((0, 64),))


def test_rects_overlap_point_point():
    assert overlap(((5, 6), (0, 16)), ((5, 6), (0, 16)))
    assert not overlap(((5, 6), (0, 16)), ((6, 7), (0, 16)))


def test_rects_overlap_point_touching_full_and_span():
    assert overlap(((5, 6),), ((0, 64),))
    assert overlap(((5, 6),), ((5, 8),))
    assert not overlap(((4, 5),), ((5, 8),))


def test_rects_overlap_trailing_dims_ignored():
    """zip semantics: extra trailing dims on either side are ignored,
    matching Access.resolve's implicit-full padding."""
    assert overlap(((0, 4),), ((2, 6), (0, 16)))
    assert not overlap(((0, 4),), ((4, 6), (9, 9)))


def test_access_rect_emits_empty_dim_for_outside_halo():
    """A halo entirely outside the array clips to an empty set; the
    footprint must then overlap nothing (including itself), and a
    witness pair on it is never confirmed."""
    acc = Access("a", (Span(-2, -2), Full()))
    sets = access_sets(acc, 0, 2)
    assert sets[0].empty
    assert not sets_conflict({"a": [sets]}, {"a": [sets]})
    assert not depend._confirm(acc, acc, 0, 1, (64, 16))


# ---------------------------------------------------------------------- #
# loops_fusable_exact hoists per-processor sets (no O(p^2) rebuild)

def test_loops_fusable_chunk_sets_call_count(monkeypatch):
    """Each loop side's sets are computed once per processor: exactly
    4 * nprocs chunk_sets calls, not O(nprocs**2)."""
    from repro.compiler import depend

    l1 = ParallelLoop("l1", 64, kern,
                      writes=[Access("a", (Span(), Full()))])
    l2 = ParallelLoop("l2", 64, kern,
                      reads=[Access("a", (Span(), Full()))],
                      writes=[Access("b", (Span(), Full()))])
    prog = make_prog([l1, l2])
    nprocs = 8
    calls = {"n": 0}
    real = depend.chunk_sets

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(depend, "chunk_sets", counting)
    verdict = depend.loops_fusable_exact(l1, l2, nprocs, prog)
    assert calls["n"] == 4 * nprocs
    assert verdict  # disjoint block rows: fusable


def test_loops_fusable_verdicts_unchanged_by_hoisting():
    """Bit-identical verdicts vs the paper cases: shallow-style fusable
    pair fuses, jacobi-style halo pair does not."""
    fuse_a = ParallelLoop("fa", 64, kern,
                          writes=[Access("a", (Span(), Full()))])
    fuse_b = ParallelLoop("fb", 64, kern,
                          reads=[Access("a", (Span(), Full()))],
                          writes=[Access("b", (Span(), Full()))])
    halo_b = ParallelLoop("hb", 64, kern,
                          reads=[Access("a", (Span(-1, 1), Full()))],
                          writes=[Access("b", (Span(), Full()))])
    prog = make_prog([fuse_a, fuse_b, halo_b])
    assert loops_fusable(fuse_a, fuse_b, 4, prog)
    assert not loops_fusable(fuse_a, halo_b, 4, prog)


# ---------------------------------------------------------------------- #
# the algebra against brute force: boolean masks of resolved footprints

@st.composite
def _shape_and_accesses(draw):
    shape = (draw(st.integers(1, 16)),) + tuple(
        draw(st.lists(st.integers(1, 9), max_size=2)))

    def region():
        dims = []
        for extent in shape[:draw(st.integers(1, len(shape)))]:
            kind = draw(st.sampled_from(("span", "point", "full")))
            if kind == "span":       # halos reach past both edges
                lo_off = draw(st.integers(-4, 4))
                dims.append(Span(lo_off, lo_off + draw(st.integers(-2, 3))))
            elif kind == "point":
                dims.append(Point(draw(st.integers(-extent, extent - 1))))
            else:
                dims.append(Full())
        return tuple(dims)

    return shape, Access("a", region()), Access("a", region())


def _mask(acc, lo, hi, shape):
    """The elements ``acc`` touches for the block ``[lo, hi)``.  A resolved
    slice denotes the half-open interval ``[start, stop)`` in the array
    (a stop below 0 is empty, as the IR's clipped ``Span`` means)."""
    mask = np.ones(shape, dtype=bool)
    for d, comp in enumerate(acc.resolve(lo, hi, shape)):
        keep = np.zeros(shape[d], dtype=bool)
        if isinstance(comp, slice):
            keep[max(comp.start, 0):max(comp.stop, 0)] = True
        else:
            keep[comp] = True
        mask &= keep.reshape((-1,) + (1,) * (len(shape) - d - 1))
    return mask


def _chunk_mask(acc, chunk, shape):
    mask = np.zeros(shape, dtype=bool)
    if chunk.step:
        for i in chunk.indices.tolist():
            mask |= _mask(acc, i, i + 1, shape)
    elif chunk.count:
        mask |= _mask(acc, chunk.lo, chunk.hi, shape)
    return mask


@st.composite
def _chunk(draw, extent):
    if draw(st.booleans()):
        lo = draw(st.integers(0, extent - 1))
        return Chunk(lo, draw(st.integers(lo + 1, extent)))
    nprocs = draw(st.integers(1, 4))
    return Chunk.cyclic(draw(st.integers(0, extent - 1)), extent, nprocs,
                        draw(st.integers(0, nprocs - 1)))


@st.composite
def _dim_set(draw):
    start = draw(st.integers(-6, 12))
    if draw(st.booleans()):
        return Interval(start, start + draw(st.integers(-2, 8)))
    return Strided(start, draw(st.integers(1, 5)), draw(st.integers(0, 5)),
                   draw(st.integers(0, 4)))


def _members(dim_set) -> set:
    if isinstance(dim_set, Interval):
        return set(range(dim_set.lo, dim_set.hi))
    return {dim_set.start + k * dim_set.step + w
            for k in range(dim_set.count) for w in range(dim_set.width)}


@settings(max_examples=500, deadline=None)
@given(_dim_set(), _dim_set())
def test_dim_sets_intersect_matches_brute_force(a, b):
    """Exact in every pairing: Strided x Strided by its Diophantine
    solve, Strided x Interval by the block range."""
    assert depend.dim_sets_intersect(a, b) == bool(_members(a)
                                                   & _members(b))


@settings(max_examples=300, deadline=None)
@given(_shape_and_accesses(), st.data())
def test_witness_confirmation_matches_brute_force(case, data):
    shape, acc_a, acc_b = case
    i = data.draw(st.integers(0, shape[0] - 1))
    j = data.draw(st.integers(0, shape[0] - 1))
    truth = (_mask(acc_a, i, i + 1, shape)
             & _mask(acc_b, j, j + 1, shape)).any()
    assert depend._confirm(acc_a, acc_b, i, j, shape) == truth


@settings(max_examples=300, deadline=None)
@given(_shape_and_accesses(), st.data())
def test_chunk_sets_conflict_matches_brute_force(case, data):
    """Block chunks: conflict exactly when the footprints overlap.  With a
    cyclic chunk on either side the sets over-approximate, so they may
    say "conflict" on disjoint footprints but never "disjoint" on
    overlapping ones."""
    shape, acc_a, acc_b = case
    chunk_a = data.draw(_chunk(shape[0]))
    chunk_b = data.draw(_chunk(shape[0]))
    loop_a = ParallelLoop("la", shape[0], kern, writes=[acc_a])
    loop_b = ParallelLoop("lb", shape[0], kern, reads=[acc_b])
    prog = Program("p", arrays=[ArrayDecl("a", shape)],
                   body=[loop_a, loop_b])
    conflict = sets_conflict(chunk_sets(loop_a, "writes", chunk_a, prog),
                             chunk_sets(loop_b, "reads", chunk_b, prog))
    truth = (_chunk_mask(acc_a, chunk_a, shape)
             & _chunk_mask(acc_b, chunk_b, shape)).any()
    if chunk_a.step or chunk_b.step:
        assert conflict or not truth
    else:
        assert conflict == truth

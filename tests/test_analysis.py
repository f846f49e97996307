"""Tests for the region algebra (repro.compiler.analysis) and the fusion
test built on chunk footprints (repro.compiler.depend.loops_fusable_exact)."""

from repro.compiler import analysis
from repro.compiler.analysis import access_rect, rects_overlap
from repro.compiler.depend import loops_fusable_exact as loops_fusable
from repro.compiler.ir import (Access, ArrayDecl, Full, Irregular,
                               ParallelLoop, Point, Program, Reduction, Span)
from repro.compiler.partition import loop_chunk


def make_prog(loops, shape=(64, 16)):
    return Program("p", arrays=[ArrayDecl("a", shape), ArrayDecl("b", shape)],
                   body=list(loops))


def kern(v, lo, hi):
    return None


def chunk_rects(loop, which, pid, nprocs, prog):
    return analysis.chunk_rects(loop, which, loop_chunk(loop, pid, nprocs),
                                prog)


def test_access_rect_affine():
    acc = Access("a", (Span(-1, 1), Full()))
    assert access_rect(acc, 8, 16, (64, 16)) == ((7, 17), (0, 16))


def test_access_rect_point():
    acc = Access("a", (Point(5),))
    assert access_rect(acc, 0, 0, (64, 16)) == ((5, 6), (0, 16))


def test_access_rect_irregular_is_none():
    acc = Access("a", Irregular(lambda v, lo, hi: None))
    assert access_rect(acc, 0, 8, (64,)) is None


def test_rects_overlap_cases():
    assert rects_overlap(((0, 4), (0, 4)), ((3, 8), (0, 4)))
    assert not rects_overlap(((0, 4), (0, 4)), ((4, 8), (0, 4)))
    assert not rects_overlap(((0, 4), (0, 2)), ((0, 4), (2, 4)))
    # empty rects never overlap
    assert not rects_overlap(((2, 2), (0, 4)), ((0, 4), (0, 4)))


def test_chunk_rects_block():
    loop = ParallelLoop("l", 64, kern,
                        reads=[Access("a", (Span(-1, 1), Full()))])
    prog = make_prog([loop])
    rects = chunk_rects(loop, "reads", 1, 4, prog)
    assert rects == {"a": [((15, 33), (0, 16))]}


def test_chunk_rects_cyclic_bounding_interval():
    loop = ParallelLoop("l", 64, kern, schedule="cyclic", start=10,
                        writes=[Access("a", (Span(), Full()))])
    prog = make_prog([loop])
    rects = chunk_rects(loop, "writes", 2, 4, prog)
    (row_range, _cols), = rects["a"]
    lo, hi = row_range
    # proc 2 owns {10, 14, ..} offset: first index >= 10 with idx%4==2
    assert lo % 4 == 2 and lo >= 10
    assert hi <= 64


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
    assert access_rect(acc, 0, 0, (64, 16)) == ((63, 64), (0, 16))


# ---------------------------------------------------------------------- #
# rects_overlap edge cases: empty / point / full dim combinations
# (the zero-extent invariant documented in the docstring)

def test_rects_overlap_empty_dim_beats_point_dim():
    """A clipped-empty Span dim next to a (c, c+1) Point dim: the empty
    dim makes the whole footprint empty, so even identical point dims
    must not report overlap."""
    assert not rects_overlap(((5, 5), (3, 4)), ((5, 5), (3, 4)))
    assert not rects_overlap(((5, 5), (3, 4)), ((0, 64), (3, 4)))


def test_rects_overlap_empty_inside_enclosing_full():
    """An empty dim does not overlap an enclosing full dim."""
    assert not rects_overlap(((7, 7),), ((0, 64),))
    assert not rects_overlap(((0, 64),), ((7, 7),))
    assert not rects_overlap(((7, 7),), ((7, 7),))


def test_rects_overlap_inverted_extent_is_empty():
    """hi < lo (not just ==) also denotes empty, never a wrapped range."""
    assert not rects_overlap(((8, 2),), ((0, 64),))


def test_rects_overlap_point_point():
    assert rects_overlap(((5, 6), (0, 16)), ((5, 6), (0, 16)))
    assert not rects_overlap(((5, 6), (0, 16)), ((6, 7), (0, 16)))


def test_rects_overlap_point_touching_full_and_span():
    assert rects_overlap(((5, 6),), ((0, 64),))
    assert rects_overlap(((5, 6),), ((5, 8),))
    assert not rects_overlap(((4, 5),), ((5, 8),))


def test_rects_overlap_trailing_dims_ignored():
    """zip semantics: extra trailing dims on either side are ignored,
    matching Access.resolve's implicit-full padding."""
    assert rects_overlap(((0, 4),), ((2, 6), (0, 16)))
    assert not rects_overlap(((0, 4),), ((4, 6), (9, 9)))


def test_access_rect_emits_empty_dim_for_outside_halo():
    """A halo entirely outside the array clips to an empty slice; the
    rect must then overlap nothing (including itself)."""
    acc = Access("a", (Span(-2, -2), Full()))
    rect = access_rect(acc, 0, 2, (64, 16))
    lo, hi = rect[0]
    assert hi <= lo
    assert not rects_overlap(rect, rect)


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

"""Tests for the loop-nest IR (repro.compiler.ir)."""

import numpy as np
import pytest

from repro.compiler.ir import (Access, ArrayDecl, Full, Irregular, Mark,
                               ParallelLoop, Point, Program, Reduction,
                               SeqBlock, Span, TimeLoop)


def test_span_resolves_with_clipping():
    s = Span(-1, 1)
    assert s.resolve(0, 4, 16) == (0, 5)
    assert s.resolve(12, 16, 16) == (11, 16)
    assert Span().resolve(2, 6, 16) == (2, 6)


@pytest.mark.parametrize("span, bounds, want", [
    (Span(-3, -3), (0, 1), (0, 0)),       # entirely below row 0
    (Span(-5, -1), (2, 3), (0, 2)),       # partly below
    (Span(3, 3), (62, 64), (64, 64)),     # entirely past the last row
    (Span(2, -2), (10, 11), (12, 12)),    # inverted: start past stop
])
def test_span_halo_outside_the_array_is_empty(span, bounds, want):
    """Every resolved interval satisfies 0 <= lo <= hi <= extent."""
    assert span.resolve(*bounds, 64) == want


def test_full_and_point():
    assert Full().resolve(3, 5, 10) == (0, 10)
    assert Point(4).resolve(0, 0, 10) == (4, 5)
    assert Point(-1).resolve(0, 0, 10) == (9, 10)
    assert Point(lambda lo, hi: lo + 1).resolve(5, 9, 10) == (6, 7)


def test_access_resolve_fills_trailing_dims():
    acc = Access("a", (Span(),))
    assert acc.resolve(2, 4, (8, 16)) == ((2, 4), (0, 16))


def test_as_index_keeps_the_point_rank_drop():
    a = np.arange(4 * 6 * 2).reshape(4, 6, 2)
    acc = Access("a", (Point(1), Span(-1, 0)))
    region = acc.resolve(2, 4, a.shape)
    assert region == ((1, 2), (1, 4), (0, 2))
    assert acc.as_index(region) == (1, slice(1, 4), slice(0, 2))
    assert np.array_equal(a[acc.as_index(region)], a[1, 1:4])


def test_access_resolve_rank_check():
    acc = Access("a", (Span(), Full(), Full()))
    with pytest.raises(ValueError):
        acc.resolve(0, 1, (8,))


def test_irregular_access_flagged():
    acc = Access("a", Irregular(lambda v, lo, hi: np.array([0])))
    assert acc.irregular
    with pytest.raises(TypeError):
        acc.resolve(0, 1, (8,))


def test_array_decl_normalizes_shape():
    d = ArrayDecl("a", (np.int64(4), 8.0 if False else 8))
    assert d.shape == (4, 8)


def test_array_decl_rejects_bad_dist_kind():
    with pytest.raises(ValueError):
        ArrayDecl("a", (4,), dist_kind="diagonal")


def test_reduction_ops():
    assert Reduction("r", "sum").combine(2, 3) == 5
    assert Reduction("r", "max").combine(2, 3) == 3
    assert Reduction("r", "min").combine(2, 3) == 2
    assert Reduction("r", "sum").identity == 0.0
    assert Reduction("r", "max").identity == -np.inf
    with pytest.raises(ValueError):
        Reduction("r", "xor").combine(1, 2)


def test_parallel_loop_chunk_cost():
    loop = ParallelLoop("l", 10, lambda v, lo, hi: None, cost_per_iter=2.0)
    assert loop.chunk_cost(3, 7) == 8.0


def test_timeloop_static_and_factory_bodies():
    loop_a = ParallelLoop("a", 4, lambda v, lo, hi: None)
    static = TimeLoop("t", 3, [loop_a])
    assert static.stmts_at(0) == [loop_a]
    factory = TimeLoop("t", 3, lambda t: [ParallelLoop(f"l{t}", 4,
                                                       lambda v, lo, hi: None)])
    assert factory.stmts_at(2)[0].name == "l2"


def _tiny_program(**kw):
    return Program(
        "p",
        arrays=[ArrayDecl("a", (8, 8))],
        body=[SeqBlock("init", lambda v: None,
                       writes=[Access("a", (Full(), Full()))]),
              Mark("start"),
              TimeLoop("t", 2, [ParallelLoop(
                  "work", 8, lambda v, lo, hi: None,
                  reads=[Access("a", (Span(),))],
                  writes=[Access("a", (Span(),))])]),
              Mark("stop")],
        **kw)


def test_flat_statements_unrolls_timeloops():
    prog = _tiny_program()
    stmts = list(prog.flat_statements())
    names = [getattr(s, "name", getattr(s, "label", None)) for s in stmts]
    assert names == ["init", "start", "work", "work", "stop"]


def test_decl_lookup():
    prog = _tiny_program()
    assert prog.decl("a").shape == (8, 8)
    with pytest.raises(KeyError):
        prog.decl("zzz")


def test_validate_catches_undeclared_access():
    prog = Program(
        "bad", arrays=[ArrayDecl("a", (4,))],
        body=[SeqBlock("s", lambda v: None,
                       reads=[Access("ghost", (Full(),))])])
    with pytest.raises(ValueError, match="ghost"):
        prog.validate()


def test_validate_catches_bad_extent():
    prog = Program(
        "bad", arrays=[ArrayDecl("a", (4,))],
        body=[ParallelLoop("l", 0, lambda v, lo, hi: None)])
    with pytest.raises(ValueError, match="extent"):
        prog.validate()


def test_validate_catches_undeclared_accumulate():
    prog = Program(
        "bad", arrays=[ArrayDecl("a", (4,))],
        body=[ParallelLoop("l", 4, lambda v, lo, hi: None,
                           accumulate=["ghost"])])
    with pytest.raises(ValueError, match="accumulate"):
        prog.validate()


# ---------------------------------------------------------------------- #
# structured footprint errors and measurement windows (lint plumbing)

def test_footprint_error_rank_fields():
    from repro.compiler.ir import FootprintError
    acc = Access("a", (Span(), Full(), Full()))
    with pytest.raises(FootprintError) as info:
        acc.resolve(0, 1, (8, 8))
    err = info.value
    assert err.array == "a" and err.kind == "rank"
    assert err.region_rank == 3 and err.array_rank == 2
    assert "a:" in str(err)


def test_footprint_error_bounds_fields():
    from repro.compiler.ir import FootprintError
    acc = Access("a", (Point(12),))
    with pytest.raises(FootprintError) as info:
        acc.resolve(0, 0, (8,))
    err = info.value
    assert err.kind == "bounds" and err.dim == 0
    assert err.index == 12 and err.extent == 8
    # a FootprintError is still a ValueError for existing callers
    assert isinstance(err, ValueError)


def test_flat_statements_with_window():
    loop = ParallelLoop("l", 4, lambda v, lo, hi: None)
    init = SeqBlock("init", lambda v: None)
    tail = SeqBlock("tail", lambda v: None)
    prog = Program("p", arrays=[ArrayDecl("a", (4,))],
                   body=[init, Mark("start"),
                         TimeLoop("t", 2, [loop]),
                         Mark("stop"), tail])
    seen = [(s.name if not isinstance(s, Mark) else f"mark:{s.label}", w)
            for s, w in prog.flat_statements_with_window()]
    assert ("init", "setup") in seen
    assert seen.count(("l", "measured")) == 2
    assert ("tail", "epilogue") in seen

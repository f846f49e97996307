"""Tests for the symbolic dependence engine (repro.compiler.depend)."""

import numpy as np
import pytest

from repro.apps.common import get_app
from repro.compiler import depend
from repro.compiler.depend import (PROVEN_PARALLEL, PROVEN_SERIAL, UNKNOWN,
                                   Interval, Strided, analyze_loop,
                                   analyze_program, chunk_sets,
                                   dim_sets_intersect,
                                   eligible_mutation_targets,
                                   inject_dependence, loops_fusable_exact,
                                   mhp_pairs, pair_dependence, tag_family)
from repro.compiler.ir import (Access, ArrayDecl, Full, Irregular,
                               ParallelLoop, Point, Program, Reduction,
                               Span)
from repro.compiler.partition import loop_chunk

APPS = ("jacobi", "mgs", "fft3d", "shallow", "igrid", "nbf")


def make_prog(loops, shape=(64, 16)):
    return Program("p", arrays=[ArrayDecl("a", shape), ArrayDecl("b", shape)],
                   body=list(loops))


def kern(v, lo, hi):
    return None


def app_program(app, preset="test"):
    spec = get_app(app)
    return spec.build_program(spec.params(preset))


# ---------------------------------------------------------------------- #
# pair_dependence: the exact subscript test

def test_self_span_write_pair_proves_disjoint():
    """Span() x Span(): d confined to [0, 0], excluded by d != 0."""
    loop = ParallelLoop("l", 64, kern,
                        writes=[Access("a", (Span(), Full()))])
    w = loop.writes[0]
    assert pair_dependence(w, w, loop, (64, 16)) == ("none", None)


def test_halo_read_vs_write_confirmed_with_witness():
    loop = ParallelLoop("l", 64, kern,
                        reads=[Access("a", (Span(-1, 1), Full()))],
                        writes=[Access("a", (Span(), Full()))])
    status, info = pair_dependence(loop.writes[0], loop.reads[0],
                                   loop, (64, 16))
    assert status == "dep"
    assert info["confirmed"]
    assert info["distance"] in (-1, 1)
    i, j = info["witness"]
    assert 0 <= i < 64 and 0 <= j < 64 and i != j


def test_distinct_point_constants_prove_disjoint():
    loop = ParallelLoop("l", 64, kern,
                        writes=[Access("a", (Point(3), Full()))],
                        reads=[Access("a", (Point(7), Full()))])
    assert pair_dependence(loop.writes[0], loop.reads[0],
                           loop, (64, 16)) == ("none", None)


def test_same_point_constant_is_a_real_output_dependence():
    """Every iteration writes row 5: a confirmed cross-iteration
    output dependence (and the loop is PROVEN-SERIAL)."""
    loop = ParallelLoop("l", 64, kern,
                        writes=[Access("a", (Point(5), Full()))])
    status, info = pair_dependence(loop.writes[0], loop.writes[0],
                                   loop, (64, 16))
    assert status == "dep" and info["confirmed"]
    prog = make_prog([loop])
    assert analyze_loop(loop, prog).verdict == PROVEN_SERIAL


def test_callable_point_is_unknown():
    loop = ParallelLoop("l", 64, kern,
                        writes=[Access("a", (Point(lambda lo, hi: lo),
                                             Full()))])
    status, _reason = pair_dependence(loop.writes[0], loop.writes[0],
                                      loop, (64, 16))
    assert status == "unknown"
    prog = make_prog([loop])
    assert analyze_loop(loop, prog).verdict == UNKNOWN


def test_flow_dependence_direction_and_kind():
    """a[i] written, a[i-1] read: distance +1 flow dependence."""
    loop = ParallelLoop("l", 64, kern,
                        reads=[Access("a", (Span(-1, -1), Full()))],
                        writes=[Access("a", (Span(), Full()))])
    prog = make_prog([loop])
    verdict = analyze_loop(loop, prog)
    assert verdict.verdict == PROVEN_SERIAL
    assert any(d.kind == "flow" and d.confirmed
               for d in verdict.dependences)


# ---------------------------------------------------------------------- #
# analyze_loop composition rules

def test_distinct_arrays_never_conflict():
    loop = ParallelLoop("l", 64, kern,
                        reads=[Access("a", (Span(-2, 2), Full()))],
                        writes=[Access("b", (Span(), Full()))])
    prog = make_prog([loop])
    assert analyze_loop(loop, prog).verdict == PROVEN_PARALLEL


def test_reduction_only_loop_is_parallel():
    loop = ParallelLoop("l", 64, kern,
                        reads=[Access("a", (Span(), Full()))],
                        reductions=[Reduction("s")])
    prog = make_prog([loop])
    assert analyze_loop(loop, prog).verdict == PROVEN_PARALLEL


def test_irregular_dominates_even_with_affine_disjoint_dims():
    """UNKNOWN dominates: an Irregular access can never be promoted."""
    loop = ParallelLoop("l", 64, kern,
                        reads=[Access("a", Irregular(lambda v, lo, hi:
                                                     np.array([0])))],
                        writes=[Access("b", (Span(), Full()))])
    prog = make_prog([loop])
    verdict = analyze_loop(loop, prog)
    assert verdict.verdict == UNKNOWN
    assert verdict.unknowns


def test_accumulate_array_excluded_from_pairs():
    """Accumulate staging is per-processor private by construction."""
    loop = ParallelLoop("l", 64, kern,
                        writes=[Access("a", (Full(), Full()))],
                        accumulate=["a"])
    prog = make_prog([loop])
    assert analyze_loop(loop, prog).verdict == PROVEN_PARALLEL


# ---------------------------------------------------------------------- #
# satellite: Irregular resolver edge cases degrade, never crash/claim

@pytest.mark.parametrize("footprint", [
    lambda v, lo, hi: np.array([], dtype=np.int64),          # empty
    lambda v, lo, hi: np.array([3, 3, 3], dtype=np.int64),   # duplicated
    lambda v, lo, hi: np.array([9, 1, 5], dtype=np.int64),   # out of order
    lambda v, lo, hi: None,                                  # degenerate
])
def test_irregular_resolver_edge_cases_stay_unknown(footprint):
    loop = ParallelLoop("l", 64, kern,
                        reads=[Access("a", Irregular(footprint))],
                        writes=[Access("a", (Span(), Full()))])
    prog = make_prog([loop])
    verdict = analyze_loop(loop, prog)
    assert verdict.verdict == UNKNOWN
    report = analyze_program(prog)
    assert report.verdicts["l"].verdict == UNKNOWN
    # the whole-program explain path must not crash either
    assert "UNKNOWN" in report.explain("l")


@pytest.mark.parametrize("footprint", [
    lambda v, lo, hi: np.array([], dtype=np.int64),
    lambda v, lo, hi: np.array([3, 3, 3], dtype=np.int64),
    lambda v, lo, hi: np.array([9, 1, 5], dtype=np.int64),
])
def test_irregular_resolver_edge_cases_lint_path(footprint):
    """The lint consumers (fusion, chunk sets) degrade conservatively."""
    irr = ParallelLoop("irr", 64, kern,
                       reads=[Access("a", Irregular(footprint))],
                       writes=[Access("b", (Span(), Full()))])
    aff = ParallelLoop("aff", 64, kern,
                       writes=[Access("a", (Span(), Full()))])
    prog = make_prog([irr, aff])
    assert not loops_fusable_exact(irr, aff, 4, prog)
    assert not loops_fusable_exact(aff, irr, 4, prog)
    assert chunk_sets(irr, "reads", loop_chunk(irr, 0, 4), prog) is None


# ---------------------------------------------------------------------- #
# exact chunk sets

def test_dim_sets_intersect_intervals():
    assert dim_sets_intersect(Interval(0, 4), Interval(3, 8))
    assert not dim_sets_intersect(Interval(0, 4), Interval(4, 8))
    assert not dim_sets_intersect(Interval(4, 4), Interval(0, 64))


def test_dim_sets_intersect_strided_disjoint_residues():
    """pid 0 and pid 1 of a width-1 cyclic distribution never collide."""
    p0 = Strided(start=0, step=4, count=16, width=1)
    p1 = Strided(start=1, step=4, count=16, width=1)
    assert not dim_sets_intersect(p0, p1)
    assert dim_sets_intersect(p0, p0)


def test_dim_sets_intersect_strided_width_reaches_neighbour():
    """Width 2 blocks starting one apart do overlap."""
    p0 = Strided(start=0, step=4, count=16, width=2)
    p1 = Strided(start=1, step=4, count=16, width=1)
    assert dim_sets_intersect(p0, p1)


def test_dim_sets_intersect_strided_diophantine_steps():
    """Different steps: 3k vs 2m+1 — 3k is odd for odd k, so they meet."""
    a = Strided(start=0, step=3, count=10, width=1)   # 0,3,6,...
    b = Strided(start=1, step=2, count=10, width=1)   # 1,3,5,...
    assert dim_sets_intersect(a, b)
    # 4k vs 4m+2: residues mod 2 coincide... but mod 4 they never do
    c = Strided(start=0, step=4, count=10, width=1)
    d = Strided(start=2, step=4, count=10, width=1)
    assert not dim_sets_intersect(c, d)


def test_dim_sets_strided_vs_interval():
    s = Strided(start=1, step=4, count=8, width=1)    # 1,5,9,...
    assert dim_sets_intersect(s, Interval(4, 6))      # contains 5
    assert not dim_sets_intersect(s, Interval(2, 5))  # 2,3,4: none owned
    assert not dim_sets_intersect(s, Interval(6, 6))


def test_exact_fusion_beats_bounding_rectangles_on_cyclic():
    """Two identical cyclic loops interleave rows per-processor; their
    bounding intervals overlap, the exact residue sets prove fusable."""
    l1 = ParallelLoop("l1", 64, kern, schedule="cyclic",
                      writes=[Access("a", (Span(), Full()))])
    l2 = ParallelLoop("l2", 64, kern, schedule="cyclic",
                      reads=[Access("a", (Span(), Full()))],
                      writes=[Access("b", (Span(), Full()))])
    prog = make_prog([l1, l2])
    assert loops_fusable_exact(l1, l2, 4, prog)      # exact: disjoint


def test_exact_fusion_matches_rect_on_block():
    fuse_a = ParallelLoop("fa", 64, kern,
                          writes=[Access("a", (Span(), Full()))])
    fuse_b = ParallelLoop("fb", 64, kern,
                          reads=[Access("a", (Span(), Full()))],
                          writes=[Access("b", (Span(), Full()))])
    halo_b = ParallelLoop("hb", 64, kern,
                          reads=[Access("a", (Span(-1, 1), Full()))],
                          writes=[Access("b", (Span(), Full()))])
    prog = make_prog([fuse_a, fuse_b, halo_b])
    assert loops_fusable_exact(fuse_a, fuse_b, 4, prog)
    assert not loops_fusable_exact(fuse_a, halo_b, 4, prog)


def test_exact_fusion_refuses_cyclic_halo():
    """A cyclic halo write really does reach neighbour processors."""
    l1 = ParallelLoop("l1", 64, kern, schedule="cyclic",
                      writes=[Access("a", (Span(0, 1), Full()))])
    l2 = ParallelLoop("l2", 64, kern, schedule="cyclic",
                      reads=[Access("a", (Span(), Full()))],
                      writes=[Access("b", (Span(), Full()))])
    prog = make_prog([l1, l2])
    assert not loops_fusable_exact(l1, l2, 4, prog)


# ---------------------------------------------------------------------- #
# MHP

def test_mhp_self_pairs_for_every_family():
    program = app_program("jacobi")
    pairs = mhp_pairs(program)
    fams = {p.a for p in pairs if p.a == p.b}
    assert {"stencil", "copy"} <= fams


def test_mhp_fused_pairs_under_fuse_loops():
    from repro.compiler.spf import SpfOptions
    program = app_program("shallow")
    base = mhp_pairs(program, 8)
    fused = mhp_pairs(program, 8, SpfOptions(fuse_loops=True))
    cross_base = {(p.a, p.b) for p in base if p.a != p.b}
    cross_fused = {(p.a, p.b) for p in fused if p.a != p.b}
    assert not cross_base
    assert ("step1", "colwrap1") in cross_fused


# ---------------------------------------------------------------------- #
# whole-app verdicts (the acceptance matrix)

EXPECTED_UNKNOWN = {"igrid": {"update"}, "nbf": {"forces"}}


@pytest.mark.parametrize("app", APPS)
def test_app_verdicts(app):
    report = analyze_program(app_program(app))
    expected_unknown = EXPECTED_UNKNOWN.get(app, set())
    for fam, verdict in report.verdicts.items():
        if fam in expected_unknown:
            assert verdict.verdict == UNKNOWN, fam
        else:
            assert verdict.verdict == PROVEN_PARALLEL, \
                f"{app}/{fam}: {verdict.explain()}"


@pytest.mark.parametrize("app", APPS)
def test_app_report_doc_round_trips_to_json(app):
    import json
    doc = analyze_program(app_program(app)).as_doc()
    assert doc["schema"] == "repro-depend/1"
    assert json.loads(json.dumps(doc)) == doc


# ---------------------------------------------------------------------- #
# mutations: injected dependences flip verdicts (>= 3 per app)

@pytest.mark.parametrize("app", APPS)
def test_injected_dependences_flip_verdicts(app):
    program = app_program(app)
    assert eligible_mutation_targets(program)
    flips = 0
    for seed in range(3):
        mutated, mut = inject_dependence(program, seed=seed)
        verdict = analyze_program(mutated).verdicts[mut.family].verdict
        assert verdict != PROVEN_PARALLEL, \
            f"{app} seed {seed}: {mut.describe()} did not flip"
        flips += 1
    assert flips >= 3


def test_mutation_is_declaration_only():
    """The kernels are untouched: the mutated program still computes
    the same numbers (mutations must stay shadow-lint-safe)."""
    from repro.compiler.seq import run_sequential
    program = app_program("jacobi")
    _v0, scalars0, _t = run_sequential(app_program("jacobi"))
    mutated, _mut = inject_dependence(program, seed=1)
    _v1, scalars1, _t = run_sequential(mutated)
    assert scalars0 == scalars1


def test_tag_family_strips_instance_and_array():
    assert tag_family("update[1]:g0") == "update"
    assert tag_family("stencil:u") == "stencil"
    assert tag_family("stats") == "stats"


# ---------------------------------------------------------------------- #
# cross-validation harness

def test_cross_check_app_jacobi_ok():
    from repro.eval.racecheck import cross_check_app
    rep = cross_check_app("jacobi", seeds=1, nprocs=4, mutations=1)
    assert rep.ok
    assert not rep.violations
    assert rep.flips == 1
    doc = rep.as_doc()
    assert doc["schema"] == "repro-crosscheck/1"
    assert "jacobi" in rep.format()

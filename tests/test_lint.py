"""Tests for the static IR verifier (repro.compiler.lint).

One test per rule on minimal synthetic programs, ShadowArray mechanics,
suppression globs, and the registry-wide "every shipped app lints clean"
acceptance check.
"""

import numpy as np
import pytest

from repro.apps.common import APP_REGISTRY, get_app
from repro.compiler.ir import (Access, ArrayDecl, Full, Irregular, Mark,
                               ParallelLoop, Point, Program, Reduction,
                               SeqBlock, Span, TimeLoop)
from repro.compiler.lint import (ShadowArray, estimate_spf_traffic,
                                 lint_program)
from repro.compiler.spf import SpfOptions

N = 32


def noop(views, lo, hi):
    return None


def make_prog(body, arrays=None, name="p"):
    if arrays is None:
        arrays = [ArrayDecl("a", (N, N), np.float32, distribute=0),
                  ArrayDecl("b", (N, N), np.float32, distribute=0)]
    return Program(name, arrays=arrays, body=body)


def findings(report, rule):
    return [f for f in report.findings if f.rule == rule]


def rules_of(report):
    return {f.rule for f in report.findings}


# ---------------------------------------------------------------------- #
# rule 1: well-formedness

def test_wf_undeclared_array():
    loop = ParallelLoop("l", N, noop,
                        reads=[Access("ghost", (Span(), Full()))])
    rep = lint_program(make_prog([loop]), 4, shadow=False)
    (f,) = findings(rep, "wf-undeclared")
    assert f.severity == "error" and f.stmt == "l" and f.array == "ghost"
    assert not rep.ok


def test_wf_rank_mismatch():
    loop = ParallelLoop("l", N, noop,
                        reads=[Access("a", (Span(), Full(), Full()))])
    rep = lint_program(make_prog([loop]), 4, shadow=False)
    (f,) = findings(rep, "wf-rank")
    assert f.array == "a" and f.details["region_rank"] == 3
    assert f.details["array_rank"] == 2


def test_wf_bounds_point_outside():
    loop = ParallelLoop("l", N, noop,
                        reads=[Access("a", (Point(N + 5), Full()))])
    rep = lint_program(make_prog([loop]), 4, shadow=False)
    (f,) = findings(rep, "wf-bounds")
    assert f.details["index"] == N + 5 and f.details["extent"] == N


def test_wf_negative_point_wraps_once_clean():
    loop = ParallelLoop("l", N, noop,
                        reads=[Access("a", (Point(-1), Full()))],
                        writes=[Access("b", (Span(), Full()))])
    rep = lint_program(make_prog([loop]), 4, shadow=False)
    assert not findings(rep, "wf-bounds") and rep.ok


def test_wf_bad_extent():
    loop = ParallelLoop("l", 0, noop)
    rep = lint_program(make_prog([loop]), 4, shadow=False)
    (f,) = findings(rep, "wf-extent")
    assert f.severity == "error"


def test_wf_empty_iteration_space_warns():
    loop = ParallelLoop("l", 4, noop, start=10)
    rep = lint_program(make_prog([loop]), 4, shadow=False)
    (f,) = findings(rep, "wf-empty")
    assert f.severity == "warning" and rep.ok


def test_wf_halo_on_cyclic_schedule_warns():
    loop = ParallelLoop("l", N, noop, schedule="cyclic",
                        reads=[Access("a", (Span(-1, 1), Full()))],
                        writes=[Access("b", (Span(), Full()))])
    rep = lint_program(make_prog([loop]), 4, shadow=False,
                       backends=("spf",))
    (f,) = findings(rep, "wf-halo-cyclic")
    assert f.array == "a" and f.severity == "warning"


def test_wf_reduction_without_partial():
    loop = ParallelLoop("l", N, noop, reductions=[Reduction("s")])
    rep = lint_program(make_prog([loop]), 4)
    (f,) = findings(rep, "wf-reduction")
    assert "'s'" in f.message and f.severity == "error"


def test_wf_errors_gate_later_rules():
    """A rank error must not crash the shadow pass — later rules skip."""
    loop = ParallelLoop("l", N, noop,
                        reads=[Access("a", (Span(), Full(), Full()))])
    rep = lint_program(make_prog([loop]), 4, shadow=True, traffic=True)
    assert rules_of(rep) == {"wf-rank"}
    assert rep.traffic is None


def test_xhpf_distribute_dim_rule():
    arrays = [ArrayDecl("a", (N, N), np.float32, distribute=1)]
    loop = ParallelLoop("l", N, noop,
                        writes=[Access("a", (Full(), Span()))])
    rep = lint_program(make_prog([loop], arrays), 4, shadow=False)
    (f,) = findings(rep, "xhpf-dist-dim")
    assert f.array == "a"
    # without the xhpf backend the program is acceptable
    rep = lint_program(make_prog([loop], arrays), 4, shadow=False,
                       backends=("spf",))
    assert not findings(rep, "xhpf-dist-dim")


def test_xhpf_cyclic_sequential_read_rule():
    arrays = [ArrayDecl("a", (N, N), np.float32, distribute=0,
                        dist_kind="cyclic")]

    def seq_kernel(views):
        pass

    multi = SeqBlock("seq", seq_kernel,
                     reads=[Access("a", (Full(), Full()))])
    rep = lint_program(make_prog([multi], arrays), 4, shadow=False)
    (f,) = findings(rep, "xhpf-cyclic-seq")
    assert f.stmt == "seq" and f.severity == "error"
    # a single-row Point read is exactly what the backend broadcasts
    single = SeqBlock("seq", seq_kernel,
                      reads=[Access("a", (Point(3), Full()))])
    rep = lint_program(make_prog([single], arrays), 4, shadow=False)
    assert not findings(rep, "xhpf-cyclic-seq")


# ---------------------------------------------------------------------- #
# rule 2: footprint soundness (shadow execution)

def test_footprint_clean_kernel_passes():
    def kernel(views, lo, hi):
        views["b"][lo:hi] = 2.0 * views["a"][lo:hi]

    loop = ParallelLoop("l", N, kernel,
                        reads=[Access("a", (Span(), Full()))],
                        writes=[Access("b", (Span(), Full()))])
    rep = lint_program(make_prog([loop]), 4, backends=("spf",))
    assert not findings(rep, "footprint")


def test_footprint_catches_undeclared_halo_read():
    def kernel(views, lo, hi):
        lo2, hi2 = max(lo, 1), min(hi, N - 1)
        if hi2 > lo2:
            views["b"][lo2:hi2] = views["a"][lo2 - 1:hi2 + 1][1:-1]

    loop = ParallelLoop("l", N, kernel,
                        reads=[Access("a", (Span(), Full()))],  # lies: no halo
                        writes=[Access("b", (Span(), Full()))])
    rep = lint_program(make_prog([loop]), 4, backends=("spf",))
    (f,) = [f for f in findings(rep, "footprint") if f.array == "a"]
    assert f.severity == "error" and f.details["mode"] == "reads"
    assert f.stmt == "l"


def test_footprint_catches_out_of_chunk_write():
    def kernel(views, lo, hi):
        views["b"][0:hi] = 1.0          # always writes from row 0

    loop = ParallelLoop("l", N, kernel,
                        writes=[Access("b", (Span(), Full()))])
    rep = lint_program(make_prog([loop]), 4, backends=("spf",))
    (f,) = [f for f in findings(rep, "footprint") if f.array == "b"]
    assert f.details["mode"] == "writes"


def test_footprint_accumulate_contribution_outside_declared():
    def footprint(views, lo, hi):
        return np.arange(lo * N, hi * N, dtype=np.int64)

    def kernel(views, lo, hi):
        views["b"][lo:hi] += 1.0
        views["b"][hi % N, 0] += 5.0           # stray scatter-add

    loop = ParallelLoop("l", N, kernel,
                        writes=[Access("b", Irregular(footprint))],
                        accumulate=["b"])
    rep = lint_program(make_prog([loop]), 4, backends=("spf",))
    hits = [f for f in findings(rep, "footprint") if f.array == "b"]
    assert hits and hits[0].details["mode"] == "writes"


def test_footprint_cyclic_chunk_exact_rows():
    """Cyclic Span(0,0) grants exactly the owned rows, not the bounding
    interval — a kernel touching an interleaved row is caught."""
    def kernel(views, rows):
        views["a"][(rows + 1) % N] = 1.0      # neighbours' rows

    loop = ParallelLoop("l", N, kernel, schedule="cyclic",
                        writes=[Access("a", (Span(), Full()))])
    rep = lint_program(make_prog([loop]), 4, backends=("spf",))
    assert [f for f in findings(rep, "footprint") if f.array == "a"]


def test_shadow_array_mechanics():
    s = ShadowArray(np.zeros((4, 4)))
    _ = s[1:3]
    assert s.read_mask[1:3].all() and not s.read_mask[0].any()
    s[0, 0] = 7.0
    assert s.write_mask[0, 0] and s.data[0, 0] == 7.0
    assert not s.write_mask[1:].any()
    # reshape shares data and masks (flat indexing stays exact)
    flat = s.reshape(16)
    flat[5] = 1.0
    assert s.write_mask[1, 1]
    # whole-array conversion and arithmetic are full reads
    t = ShadowArray(np.ones((2, 2)))
    assert (np.asarray(t) == 1.0).all() and t.read_mask.all()
    u = ShadowArray(np.ones(3))
    _ = u * 2.0 + 1.0
    assert u.read_mask.all()
    assert u.shape == (3,) and u.ndim == 1 and len(u) == 3


def test_lost_write_flags_out_into_a_view():
    """``out=`` into a subscript writes the copy ``__getitem__`` returned:
    the declared write never happens, and lint says so."""
    def kernel(views, lo, hi):
        v = views["a"]
        np.negative(v[lo:hi], out=v[lo:hi])

    loop = ParallelLoop("neg", N, kernel,
                        reads=[Access("a", (Span(), Full()))],
                        writes=[Access("a", (Span(), Full()))])
    rep = lint_program(make_prog([loop]), 4, backends=("spf",))
    (f,) = findings(rep, "lost-write")
    assert f.severity == "error" and f.stmt == "neg" and f.array == "a"
    assert not findings(rep, "footprint") and not rep.ok


def test_lost_write_silent_for_subscript_writes_and_accumulate():
    def kernel(views, lo, hi):
        views["a"][lo:hi] = -views["a"][lo:hi]
        views["b"][lo:hi] += 1.0

    loop = ParallelLoop("l", N, kernel,
                        reads=[Access("a", (Span(), Full()))],
                        writes=[Access("a", (Span(), Full())),
                                Access("b", (Span(), Full()))],
                        accumulate=["b"])
    rep = lint_program(make_prog([loop]), 4, backends=("spf",))
    assert not findings(rep, "lost-write")


def test_shadow_array_refuses_ufunc_out():
    s = ShadowArray(np.ones(4))
    with pytest.raises(TypeError, match="subscript assignment"):
        np.negative(np.ones(4), out=s)
    with pytest.raises(TypeError, match="subscript assignment"):
        np.add(s, 1.0, s)
    assert not s.write_mask.any() and (s.data == 1.0).all()
    # as an input a wrapper is a full read, like __array__
    assert (np.negative(s) == -1.0).all() and s.read_mask.all()


# ---------------------------------------------------------------------- #
# rule 3: redundant synchronization

def _independent_pair():
    l1 = ParallelLoop("l1", N, noop,
                      writes=[Access("a", (Span(), Full()))])
    l2 = ParallelLoop("l2", N, noop,
                      reads=[Access("a", (Span(), Full()))],
                      writes=[Access("b", (Span(), Full()))])
    return l1, l2


def test_redundant_barrier_fires_on_fusable_pair():
    l1, l2 = _independent_pair()
    rep = lint_program(make_prog([l1, l2]), 4, backends=("spf",),
                       shadow=False)
    (f,) = findings(rep, "redundant-barrier")
    assert f.stmt == "l2" and f.details["pred"] == "l1"
    assert f.severity == "warning"


def test_redundant_barrier_silent_when_fused():
    l1, l2 = _independent_pair()
    rep = lint_program(make_prog([l1, l2]), 4, backends=("spf",),
                       shadow=False, options=SpfOptions(fuse_loops=True))
    assert not findings(rep, "redundant-barrier")


def test_redundant_barrier_respects_halo_dependence():
    """Jacobi's anti-dependence: the pair is NOT redundant."""
    l1 = ParallelLoop("l1", N, noop,
                      reads=[Access("a", (Span(-1, 1), Full()))],
                      writes=[Access("b", (Span(), Full()))])
    l2 = ParallelLoop("l2", N, noop,
                      reads=[Access("b", (Span(), Full()))],
                      writes=[Access("a", (Span(), Full()))])
    rep = lint_program(make_prog([l1, l2]), 4, backends=("spf",),
                       shadow=False)
    assert not findings(rep, "redundant-barrier")


def test_redundant_barrier_broken_by_seq_block():
    l1, l2 = _independent_pair()

    def seq_kernel(views):
        pass

    barrier = SeqBlock("seq", seq_kernel)
    rep = lint_program(make_prog([l1, barrier, l2]), 4, backends=("spf",),
                       shadow=False)
    assert not findings(rep, "redundant-barrier")


# ---------------------------------------------------------------------- #
# rule 4: false sharing

def _row_prog(cols):
    loop = ParallelLoop("l", N, noop,
                        writes=[Access("g", (Span(), Full()))])
    arrays = [ArrayDecl("g", (N, cols), np.float32, distribute=0)]
    return make_prog([loop], arrays)


def test_false_sharing_page_aligned_chunks_clean():
    # 8 rows x 128 cols x 4 B = exactly one page per chunk at n=4
    rep = lint_program(_row_prog(128), 4, backends=("spf",), shadow=False)
    assert not findings(rep, "false-sharing")


def test_false_sharing_straddling_chunks_warn():
    # 8 rows x 96 cols x 4 B = 3072 B: every chunk boundary straddles
    rep = lint_program(_row_prog(96), 4, backends=("spf",), shadow=False)
    (f,) = findings(rep, "false-sharing")
    assert f.stmt == "l" and "g" in f.details and f.severity == "warning"


# ---------------------------------------------------------------------- #
# rule 5: traffic prediction (static analyzability)

def test_traffic_unanalyzable_irregular():
    def footprint(views, lo, hi):
        return np.arange(lo, hi, dtype=np.int64)

    loop = ParallelLoop("l", N, noop,
                        reads=[Access("a", Irregular(footprint))],
                        writes=[Access("b", (Span(), Full()))])
    est = estimate_spf_traffic(make_prog([loop]), 4)
    assert not est.analyzable and "'l'" in est.reason


def test_traffic_unanalyzable_hand_optimized():
    l1, _l2 = _independent_pair()
    est = estimate_spf_traffic(make_prog([l1]), 4,
                               SpfOptions(aggregate=True))
    assert not est.analyzable and "aggregate" in est.reason


def test_traffic_locks_exact_for_reductions():
    def kernel(views, lo, hi):
        return {"s": float(hi - lo)}

    loop = ParallelLoop("l", N, kernel,
                        writes=[Access("a", (Span(), Full()))],
                        reductions=[Reduction("s")])
    est = estimate_spf_traffic(make_prog([TimeLoop("t", 3, [loop])]), 4)
    assert est.analyzable
    assert est.lock_acquires == 3 * 4
    # whole-run messages: fork + join per dispatch and the final fork(STOP);
    # the lock chain through manager p0 (p0's first acquire is silent, so
    # 2+3+3, then 2+2+3+3 per instance); a request/reply pair per missing
    # writer of every fetch
    sync = 3 * 2 * 3 + 3 + 8 + 10 + 10
    assert est.est_messages > sync and (est.est_messages - sync) % 2 == 0
    # "a" (32x32 float32) is one page written by all four chunks: from the
    # second instance on every processor faults it in.  The scalar's page
    # faults at each worker's fold, at the master's reset in instances 2
    # and 3, and at the master's final read.
    assert est.read_faults == est.fetches == 2 * 4 + 3 * 3 + 2 + 1


# ---------------------------------------------------------------------- #
# suppression and report plumbing

def test_suppression_globs():
    l1, l2 = _independent_pair()
    rep = lint_program(make_prog([l1, l2]), 4, backends=("spf",),
                       shadow=False, suppress=("redundant-barrier",))
    assert not findings(rep, "redundant-barrier") and rep.suppressed == 1
    rep = lint_program(make_prog([l1, l2]), 4, backends=("spf",),
                       shadow=False, suppress=("redundant-barrier:l2",))
    assert rep.suppressed == 1
    rep = lint_program(make_prog([l1, l2]), 4, backends=("spf",),
                       shadow=False, suppress=("redundant-barrier:other",))
    assert rep.suppressed == 0 and findings(rep, "redundant-barrier")


def test_report_format_and_doc():
    loop = ParallelLoop("l", N, noop,
                        reads=[Access("ghost", (Span(), Full()))])
    rep = lint_program(make_prog([loop]), 4, shadow=False)
    text = rep.format()
    assert "FAIL" in text and "wf-undeclared" in text
    doc = rep.as_doc()
    assert doc["errors"] == 1 and doc["ok"] is False
    assert doc["findings"][0]["rule"] == "wf-undeclared"


# ---------------------------------------------------------------------- #
# acceptance: every shipped application lints clean

@pytest.mark.parametrize("app", sorted(APP_REGISTRY))
def test_shipped_apps_lint_clean(app):
    spec = get_app(app)
    program = spec.build_program(spec.params("test"))
    rep = lint_program(program, 8)
    assert rep.ok, rep.format()


@pytest.mark.parametrize("app", sorted(APP_REGISTRY))
def test_shipped_apps_lint_clean_on_two_procs(app):
    """At two chunks per loop too, no declared write is lost
    (``lost-write``) and no footprint is exceeded."""
    spec = get_app(app)
    program = spec.build_program(spec.params("test"))
    rep = lint_program(program, 2)
    assert rep.ok, rep.format()


def test_shallow_flags_the_papers_fusable_pairs():
    """Section 5's barrier-elimination win shows up as lint warnings."""
    spec = get_app("shallow")
    program = spec.build_program(spec.params("test"))
    rep = lint_program(program, 8, shadow=False, backends=("spf",))
    pairs = {(f.details["pred"], f.stmt)
             for f in findings(rep, "redundant-barrier")}
    assert ("step1", "colwrap1") in pairs
    assert ("step2", "colwrap2") in pairs

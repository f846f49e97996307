"""Tests for the Section 8 future-work features implemented as extensions:
tree reductions and halo pushing."""

from operator import add

import numpy as np
import pytest

from repro.compiler.ir import (Access, ArrayDecl, Full, ParallelLoop,
                               Program, Reduction, Span, TimeLoop)
from repro.compiler.seq import run_sequential
from repro.compiler.spf import SpfOptions, compile_spf, run_spf
from repro.tmk.api import tmk_run
from repro.tmk.reduction import tmk_reduce_gen
from tests.conftest import (irregular_program, parallel_loops,
                            stencil_program)


# ---------------------------------------------------------------------- #
# tmk_reduce_gen primitive

def _setup(space):
    space.alloc("x", (4, 1024), np.float32)


def test_tmk_reduce_sum():
    def prog(tmk):
        return (yield from tmk_reduce_gen(tmk.node, float(tmk.pid + 1),
                                          add))

    for n in (1, 2, 3, 5, 8):
        r = tmk_run(n, prog, _setup)
        assert r.results == [float(n * (n + 1) // 2)] * n, f"n={n}"


def test_tmk_reduce_max_min():
    def prog(tmk):
        hi = yield from tmk_reduce_gen(tmk.node, tmk.pid, op=max)
        lo = yield from tmk_reduce_gen(tmk.node, tmk.pid, op=min)
        return (hi, lo)

    r = tmk_run(5, prog, _setup)
    assert r.results == [(4, 0)] * 5


def test_tmk_reduce_message_count():
    """2(n-1) messages: up the combining tree and back down."""

    def prog(tmk):
        yield from tmk_reduce_gen(tmk.node, 1.0, add)

    for n in (2, 4, 8):
        r = tmk_run(n, prog, _setup)
        assert r.messages == 2 * (n - 1), f"n={n}"


def test_tmk_reduce_carries_consistency():
    """The reduction doubles as a synchronization: writes before it are
    visible after it, with no barrier anywhere."""

    def prog(tmk):
        x = tmk.array("x")
        yield from x.write_gen((slice(tmk.pid, tmk.pid + 1),),
                               float(tmk.pid + 1))
        yield from tmk_reduce_gen(tmk.node, 0.0, add)
        row = (tmk.pid + 1) % tmk.nprocs
        return float((yield from x.read_gen((row, 0))))

    r = tmk_run(4, prog, _setup)
    assert r.results == [2.0, 3.0, 4.0, 1.0]


def test_tmk_reduce_cheaper_than_lock_chain():
    tree = run_spf(stencil_program(iters=5), nprocs=8,
                   options=SpfOptions(tree_reductions=True))
    lock = run_spf(stencil_program(iters=5), nprocs=8)
    assert tree.scalars["sum"] == pytest.approx(lock.scalars["sum"],
                                                rel=1e-6)
    assert tree.time < lock.time
    assert tree.dsm_stats.lock_acquires == 0
    assert tree.dsm_stats.tree_reductions > 0


# ---------------------------------------------------------------------- #
# halo pushing

def test_push_halos_same_answer_fewer_faults():
    base = run_spf(stencil_program(iters=5), nprocs=4)
    push = run_spf(stencil_program(iters=5), nprocs=4,
                   options=SpfOptions(push_halos=True))
    assert push.scalars["sum"] == pytest.approx(base.scalars["sum"],
                                                rel=1e-6)
    assert push.dsm_stats.read_faults < base.dsm_stats.read_faults
    assert push.dsm_stats.pushes > 0


def test_push_plan_targets_halo_consumers():
    exe = compile_spf(stencil_program(), nprocs=4,
                      options=SpfOptions(push_halos=True))
    pushed_arrays = {entry[0] for entries in exe.push_plan.values()
                     for entry in entries}
    assert pushed_arrays == {"a"}     # only the halo-read array
    assert exe.expect_plan            # consumers registered


def test_push_plan_empty_without_halos():
    def kernel(views, lo, hi):
        views["a"][lo:hi] += 1

    prog = Program("p", arrays=[ArrayDecl("a", (16, 64))],
                   body=[TimeLoop("t", 2, [ParallelLoop(
                       "l", 16, kernel,
                       reads=[Access("a", (Span(), Full()))],
                       writes=[Access("a", (Span(), Full()))])])])
    exe = compile_spf(prog, nprocs=4, options=SpfOptions(push_halos=True))
    assert not exe.push_plan


def zero_rewrite_program(n=32, cols=512):
    """A halo stencil whose producer writes zeros over zeros: its pages are
    dirty, but every diff is empty, so there is nothing to push."""

    def produce(views, lo, hi):
        views["a"][lo:hi] = 0.0

    def consume(views, lo, hi):
        lo2, hi2 = max(lo, 1), min(hi, n - 1)
        if hi2 > lo2:
            a = views["a"]
            views["b"][lo2:hi2] = a[lo2 - 1:hi2 - 1] + a[lo2 + 1:hi2 + 1] + 1
        return {"sum": float(views["b"][lo:hi].sum(dtype=np.float64))}

    return Program(
        "zero-rewrite",
        arrays=[ArrayDecl("a", (n, cols), np.float64),
                ArrayDecl("b", (n, cols), np.float64)],
        body=[ParallelLoop("produce", n, produce,
                           writes=[Access("a", (Span(), Full()))]),
              ParallelLoop("consume", n, consume,
                           reads=[Access("a", (Span(-1, 1), Full()))],
                           writes=[Access("b", (Span(), Full()))],
                           reductions=[Reduction("sum")])])


def test_halo_push_with_nothing_changed_still_sends():
    """A producer with no diff to push used to send nothing while its
    consumer still counted the edge and parked for ever (Deadlock)."""
    _v, seq, _t = run_sequential(zero_rewrite_program())
    r = run_spf(zero_rewrite_program(), nprocs=4,
                options=SpfOptions(push_halos=True))
    assert r.scalars == seq
    assert r.dsm_stats.pushes == 6          # two per interior boundary


@pytest.mark.parametrize("nprocs", [2, 3, 4, 7])
def test_all_extensions_combined_on_every_count(nprocs):
    _v, seq, _t = run_sequential(stencil_program())
    opts = SpfOptions(aggregate=True, fuse_loops=True, tree_reductions=True,
                      push_halos=True)
    r = run_spf(stencil_program(), nprocs=nprocs, options=opts)
    assert r.scalars["sum"] == pytest.approx(seq["sum"], rel=1e-6)


# ---------------------------------------------------------------------- #
# option pairs: every two code-generation switches must compose

def triangular_cost_program(n=64, iters=3):
    """A block-scheduled loop with a reduction and no halo."""

    def kernel(views, lo, hi):
        views["a"][lo:hi] += 1.0
        return {"s": float(views["a"][lo:hi].sum(dtype=np.float64))}

    return Program(
        "triangle",
        arrays=[ArrayDecl("a", (n, 64), np.float64)],
        body=[TimeLoop("t", iters, [ParallelLoop(
            "tri", n, kernel,
            reads=[Access("a", (Span(), Full()))],
            writes=[Access("a", (Span(), Full()))],
            reductions=[Reduction("s")],
            cost_per_iter=1e-4)])])


def skewed(program):
    """Give the k-th parallel loop the per-iteration cost 1e-6 * (1 + k),
    so loops differ in cost."""
    for k, loop in enumerate(parallel_loops(program)):
        loop.cost_per_iter = 1e-6 * (1 + k)
    return program


def producer_consumer_program(n=64, cols=256, iters=3):
    """A producer, then a consumer that reads exactly the rows its own
    chunk of the producer wrote: fusable."""

    def produce(views, lo, hi):
        views["a"][lo:hi] += 1.0

    def consume(views, lo, hi):
        views["b"][lo:hi] = 2.0 * views["a"][lo:hi]
        return {"sum": float(views["b"][lo:hi].sum(dtype=np.float64))}

    rows = (Span(), Full())
    return Program(
        "producer-consumer",
        arrays=[ArrayDecl("a", (n, cols), np.float64),
                ArrayDecl("b", (n, cols), np.float64)],
        body=[TimeLoop("t", iters, [
            ParallelLoop("produce", n, produce,
                         reads=[Access("a", rows)],
                         writes=[Access("a", rows)],
                         cost_per_iter=2e-6),
            ParallelLoop("consume", n, consume,
                         reads=[Access("a", rows)],
                         writes=[Access("b", rows)],
                         reductions=[Reduction("sum")],
                         cost_per_iter=1e-6)])])


@pytest.mark.parametrize("flags", [(), ("fuse_loops",)], ids="+".join)
def test_fusion_is_judged_on_the_chunks_that_run(flags):
    """Fusion is judged on the chunks the fused unit executes, and the
    fused run keeps the sequential answer."""
    _v, seq, _t = run_sequential(producer_consumer_program())
    assert seq["sum"] == 98304.0
    options = SpfOptions(**dict.fromkeys(flags, True))
    exe = compile_spf(producer_consumer_program(), 4, options)
    fused = any(len(unit.loops) > 1 for unit in exe.units)
    assert fused == (flags == ("fuse_loops",))
    r = run_spf(producer_consumer_program(), nprocs=4, options=options)
    assert r.scalars["sum"] == seq["sum"]


@pytest.mark.parametrize("flags", [("push_halos",)], ids="+".join)
def test_halo_pushes_follow_the_chunks_that_run(flags):
    """Producers push the boundary rows of the chunks that run, so no
    neighbour waits for a push that never comes (Deadlock)."""
    _v, seq, _t = run_sequential(skewed(stencil_program(iters=4)))
    assert seq["sum"] == 936.53125
    r = run_spf(skewed(stencil_program(iters=4)), nprocs=4,
                options=SpfOptions(**dict.fromkeys(flags, True)))
    assert r.scalars["sum"] == seq["sum"]


SWITCHES = {"fuse_loops": True, "aggregate": True, "tree_reductions": True,
            "push_halos": True, "improved_interface": False}
PAIRS = [(a, b) for i, a in enumerate(SWITCHES) for b in list(SWITCHES)[i + 1:]]


@pytest.mark.parametrize("build", [lambda: skewed(stencil_program(iters=4)),
                                   triangular_cost_program,
                                   producer_consumer_program],
                         ids=["skewed-stencil", "triangular-cost",
                              "producer-consumer"])
@pytest.mark.parametrize("pair", PAIRS, ids="+".join)
def test_every_option_pair_matches_the_oracle(pair, build):
    _v, seq, _t = run_sequential(build())
    options = SpfOptions(**{name: SWITCHES[name] for name in pair})
    r = run_spf(build(), nprocs=4, options=options)
    assert r.scalars == pytest.approx(seq, rel=1e-9)


def test_fuse_loops_compiles_accumulate_programs():
    """The synthetic merge loop reads a staging array the program never
    declared; planning used to look its shape up (KeyError) when judging
    the loop after it.  Nothing fuses onto a merge loop."""
    _v, seq, _t = run_sequential(irregular_program())
    r = run_spf(irregular_program(), nprocs=4,
                options=SpfOptions(fuse_loops=True))
    assert r.scalars == pytest.approx(seq, rel=1e-9)

"""Tests for the Section 8 future-work features implemented as extensions:
tree reductions, weighted-block load balancing, and halo pushing."""

import numpy as np
import pytest

from repro.apps.common import signatures_close
from repro.compiler.ir import (Access, ArrayDecl, Full, ParallelLoop,
                               Program, Reduction, Span, TimeLoop)
from repro.compiler.seq import run_sequential
from repro.compiler.spf import SpfOptions, compile_spf, run_spf
from repro.tmk.api import tmk_run
from repro.tmk.reduction import tmk_reduce_gen
from tests.conftest import irregular_program, stencil_program


# ---------------------------------------------------------------------- #
# tmk_reduce_gen primitive

def _setup(space):
    space.alloc("x", (4, 1024), np.float32)


def test_tmk_reduce_sum():
    def prog(tmk):
        return (yield from tmk_reduce_gen(tmk.node, float(tmk.pid + 1)))

    for n in (1, 2, 3, 5, 8):
        r = tmk_run(n, prog, _setup)
        assert r.results == [float(n * (n + 1) // 2)] * n, f"n={n}"


def test_tmk_reduce_max_min():
    def prog(tmk):
        hi = yield from tmk_reduce_gen(tmk.node, tmk.pid, op_name="max")
        lo = yield from tmk_reduce_gen(tmk.node, tmk.pid, op_name="min")
        return (hi, lo)

    r = tmk_run(5, prog, _setup)
    assert r.results == [(4, 0)] * 5


def test_tmk_reduce_message_count():
    """2(n-1) messages: up the combining tree and back down."""

    def prog(tmk):
        yield from tmk_reduce_gen(tmk.node, 1.0)

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
        yield from tmk_reduce_gen(tmk.node, 0.0)
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
# weighted-block load balancing

def triangular_cost_program(n=64, iters=3):
    """A block-scheduled loop whose iteration i costs ~i units."""

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
            cost_per_iter=lambda i: 1e-4 * (i + 1))])])


def test_balanced_chunks_cover_iteration_space():
    exe = compile_spf(triangular_cost_program(), nprocs=4,
                      options=SpfOptions(balance_loops=True))
    loop = next(iter(exe.program.parallel_loops()))
    chunks = [exe.chunk(loop, p).bounds for p in range(4)]
    assert chunks[0][0] == 0 and chunks[-1][1] == 64
    for (a, b), (c, d) in zip(chunks, chunks[1:]):
        assert b == c
    # triangular cost: the first chunk must be the largest
    sizes = [hi - lo for lo, hi in chunks]
    assert sizes[0] > sizes[-1]


def test_balancing_reduces_time_same_answer():
    base = run_spf(triangular_cost_program(), nprocs=4)
    bal = run_spf(triangular_cost_program(), nprocs=4,
                  options=SpfOptions(balance_loops=True))
    assert bal.scalars["s"] == pytest.approx(base.scalars["s"], rel=1e-9)
    assert bal.time < base.time


def test_balancing_ignores_constant_cost_loops():
    exe = compile_spf(stencil_program(), nprocs=4,
                      options=SpfOptions(balance_loops=True))
    loop = next(iter(exe.program.parallel_loops()))
    from repro.compiler.partition import block_range
    assert exe.chunk(loop, 1).bounds == block_range(32, 4, 1)


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


@pytest.mark.parametrize("nprocs", [2, 3, 4, 7])
def test_all_extensions_combined_on_every_count(nprocs):
    _v, seq, _t = run_sequential(stencil_program())
    opts = SpfOptions(aggregate=True, fuse_loops=True, tree_reductions=True,
                      balance_loops=True, push_halos=True)
    r = run_spf(stencil_program(), nprocs=nprocs, options=opts)
    assert r.scalars["sum"] == pytest.approx(seq["sum"], rel=1e-6)


# ---------------------------------------------------------------------- #
# option pairs: every two code-generation switches must compose

def skewed(program):
    """Give every parallel loop a callable, skewed per-iteration cost (so
    ``balance_loops`` really moves chunk boundaries)."""
    for loop in program.parallel_loops():
        loop.cost_per_iter = lambda i: 1e-6 * (1 + i)
    return program


def producer_consumer_program(n=64, cols=256, iters=3):
    """A producer with a callable cost, then a chunk-aligned consumer with
    a constant one: under ``balance_loops`` their boundaries differ."""

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
                         cost_per_iter=lambda i: 1e-6 * (1 + i)),
            ParallelLoop("consume", n, consume,
                         reads=[Access("a", rows)],
                         writes=[Access("b", rows)],
                         reductions=[Reduction("sum")],
                         cost_per_iter=1e-6)])])


@pytest.mark.parametrize("flags", [(), ("fuse_loops",), ("balance_loops",),
                                   ("fuse_loops", "balance_loops")],
                         ids="+".join)
def test_fusion_is_judged_on_the_chunks_that_run(flags):
    """fuse+balance used to fuse on the count-equal partition and execute
    the cost-equal one: sum = 89 088 instead of 98 304, no error."""
    _v, seq, _t = run_sequential(producer_consumer_program())
    assert seq["sum"] == 98304.0
    options = SpfOptions(**dict.fromkeys(flags, True))
    exe = compile_spf(producer_consumer_program(), 4, options)
    fused = any(len(unit.loops) > 1 for unit in exe.units)
    assert fused == (flags == ("fuse_loops",))
    r = run_spf(producer_consumer_program(), nprocs=4, options=options)
    assert r.scalars["sum"] == seq["sum"]


@pytest.mark.parametrize("flags", [("push_halos",), ("balance_loops",),
                                   ("push_halos", "balance_loops")],
                         ids="+".join)
def test_halo_pushes_follow_the_chunks_that_run(flags):
    """push+balance used to push the count-equal boundary rows while the
    cost-equal neighbours waited for pushes that never came (Deadlock)."""
    _v, seq, _t = run_sequential(skewed(stencil_program(iters=4)))
    assert seq["sum"] == 936.53125
    r = run_spf(skewed(stencil_program(iters=4)), nprocs=4,
                options=SpfOptions(**dict.fromkeys(flags, True)))
    assert r.scalars["sum"] == seq["sum"]


SWITCHES = {"fuse_loops": True, "aggregate": True, "tree_reductions": True,
            "balance_loops": True, "push_halos": True,
            "improved_interface": False}
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

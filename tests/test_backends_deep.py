"""Deeper behavioural tests of the SPF and XHPF backends."""

import numpy as np
import pytest

from repro.compiler.ir import (Access, ArrayDecl, Full, Mark, ParallelLoop,
                               Point, Program, SeqBlock, Span, TimeLoop)
from repro.compiler.seq import run_sequential
from repro.compiler.spf import SpfOptions, run_spf
from repro.compiler.xhpf import run_xhpf


def _seq_then(prog_factory, runner, n, **kw):
    _v, seq, _t = run_sequential(prog_factory())
    res = runner(prog_factory(), nprocs=n, **kw)
    return seq, res


# ---------------------------------------------------------------------- #
# master-sequential semantics (SPF)

def master_sequential_program():
    """Master mutates data between loops; workers must observe it."""

    def init(views):
        views["a"][...] = 1.0

    def bump(views):
        views["a"][0, :] += 10.0       # master-only sequential write

    def consume(views, lo, hi):
        return {"s": float(views["a"][lo:hi].sum(dtype=np.float64))}

    return Program(
        "ms", arrays=[ArrayDecl("a", (8, 64), np.float64, distribute=0)],
        body=[SeqBlock("init", init,
                       writes=[Access("a", (Full(), Full()))], cost=1e-6),
              TimeLoop("t", 3, [
                  SeqBlock("bump", bump,
                           reads=[Access("a", (Span(0, 1), Full()))],
                           writes=[Access("a", (Span(0, 1), Full()))],
                           cost=1e-6),
                  ParallelLoop("consume", 8, consume,
                               reads=[Access("a", (Span(), Full()))],
                               reductions=[
                                   __import__("repro.compiler.ir",
                                              fromlist=["Reduction"])
                                   .Reduction("s")],
                               cost_per_iter=1e-6)])])


def test_spf_master_sequential_writes_visible_to_workers():
    seq, res = _seq_then(master_sequential_program, run_spf, 4)
    assert res.scalars["s"] == pytest.approx(seq["s"], rel=1e-12)


def test_xhpf_replicated_sequential_consistent():
    seq, res = _seq_then(master_sequential_program, run_xhpf, 4)
    assert res.scalars["s"] == pytest.approx(seq["s"], rel=1e-12)


def test_xhpf_seq_read_of_distributed_data_broadcasts():
    """A sequential block reading a distributed row makes its owner
    broadcast it — n-1 messages, every processor computes."""

    def init(views, lo, hi):
        views["a"][lo:hi] = np.arange(lo, hi, dtype=np.float64)[:, None]

    def peek(views):
        views["scalarbox"][0] = views["a"][5, 0] * 2

    def report(views, lo, hi):
        return {"r": float(views["scalarbox"][0]) if lo == 0 else 0.0}

    from repro.compiler.ir import Reduction
    prog = Program(
        "p", arrays=[ArrayDecl("a", (8, 8), np.float64, distribute=0),
                     ArrayDecl("scalarbox", (1,), np.float64)],
        body=[ParallelLoop("init", 8, init,
                           writes=[Access("a", (Span(), Full()))],
                           align=("a", 0), cost_per_iter=1e-7),
              SeqBlock("peek", peek,
                       reads=[Access("a", (Point(5), Full()))],
                       writes=[Access("scalarbox", (Full(),))], cost=1e-7),
              ParallelLoop("report", 8, report,
                           reads=[Access("scalarbox", (Full(),))],
                           reductions=[Reduction("r", op="max")],
                           align=("a", 0), cost_per_iter=1e-7)])
    res = run_xhpf(prog, nprocs=4)
    assert res.scalars["r"] == 10.0
    # owner broadcast of row 5: one tree broadcast = n-1 data messages
    assert res.stats.by_category["data"][0] >= 3


# ---------------------------------------------------------------------- #
# old-interface control variables

def test_old_interface_passes_loop_bounds_through_pages():
    """Workers read the loop bounds from the shared control pages."""
    from repro.tmk.forkjoin import CTRL_ARG

    captured = []

    def kernel(views, lo, hi):
        captured.append((lo, hi))

    prog = Program("p", arrays=[ArrayDecl("a", (8, 64))],
                   body=[ParallelLoop("l", 8, kernel,
                                      writes=[Access("a", (Span(), Full()))],
                                      cost_per_iter=1e-7)])
    res = run_spf(prog, nprocs=2,
                  options=SpfOptions(improved_interface=False))
    # both processors ran their chunks; the control pages carried (0, 8)
    assert (0, 4) in captured and (4, 8) in captured


# ---------------------------------------------------------------------- #
# accumulation staging across instances

def test_spf_staging_clears_stale_contributions():
    """A contribution present in instance 1 but absent in instance 2 must
    not leak into instance 2's merge (the union-rewrite in
    _stage_contributions)."""
    flags = {"t": 0}

    def footprint(views, lo, hi):
        return np.arange(lo, hi, dtype=np.int64)

    from repro.compiler.ir import Irregular, Reduction

    def kernel(views, lo, hi):
        # instance parity decided by a shared counter array the kernel reads
        t = int(views["step"][0])
        if t % 2 == 0:
            views["acc"][lo:hi] += 1.0      # contribute everywhere
        else:
            if lo == 0:
                views["acc"][0] += 1.0      # only one cell

    def tick(views):
        views["step"][0] += 1

    def check(views, lo, hi):
        return {"total": float(views["acc"][lo:hi].sum(dtype=np.float64))}

    prog = Program(
        "stale", arrays=[ArrayDecl("acc", (8,), np.float64),
                         ArrayDecl("step", (1,), np.float64)],
        body=[TimeLoop("t", 2, [
            ParallelLoop("contrib", 8, kernel,
                         reads=[Access("step", (Full(),)),
                                Access("acc", Irregular(footprint))],
                         writes=[Access("acc", Irregular(footprint))],
                         accumulate=["acc"], cost_per_iter=1e-7),
            SeqBlock("tick", tick, reads=[Access("step", (Full(),))],
                     writes=[Access("step", (Full(),))], cost=1e-7),
            ParallelLoop("check", 8, check,
                         reads=[Access("acc", (Span(),))],
                         reductions=[Reduction("total")],
                         cost_per_iter=1e-7)])])
    _v, seq, _t = run_sequential(prog)
    assert seq["total"] == 1.0          # second instance: a single cell
    res = run_spf(prog, nprocs=4)
    assert res.scalars["total"] == pytest.approx(1.0)


# ---------------------------------------------------------------------- #
# XHPF validity tracking

def test_xhpf_irregular_prologue_rebroadcasts_stale_inputs():
    """A block loop staling an array that an irregular loop later reads
    forces the coordinate-style re-broadcast."""
    from repro.compiler.ir import Irregular, Reduction

    def footprint(views, lo, hi):
        return np.arange(0, 8, dtype=np.int64)    # reads everything

    def writer(views, lo, hi):
        views["a"][lo:hi] += 1.0

    def reader(views, lo, hi):
        return {"s": float(views["a"].sum(dtype=np.float64))
                if lo == 0 else 0.0}

    prog = Program(
        "p", arrays=[ArrayDecl("a", (8, 4), np.float64, distribute=0)],
        body=[ParallelLoop("w", 8, writer,
                           writes=[Access("a", (Span(), Full()))],
                           align=("a", 0), cost_per_iter=1e-7),
              ParallelLoop("r", 8, reader,
                           reads=[Access("a", Irregular(footprint))],
                           reductions=[Reduction("s", op="max")],
                           align=("a", 0), cost_per_iter=1e-7)])
    res = run_xhpf(prog, nprocs=4)
    assert res.scalars["s"] == 8 * 4      # fresh data everywhere
    # partition re-broadcast: 4 procs x 3 peers messages at minimum
    assert res.stats.by_category["data"][0] >= 12

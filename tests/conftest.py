"""Shared fixtures: small IR programs exercising every backend feature,
and a per-test wall limit."""

import faulthandler
import hashlib
import json
import os
import threading

import numpy as np
import pytest

from repro.api import RunRequest, execute
from repro.compiler.ir import (Access, ArrayDecl, Full, Irregular, Mark,
                               ParallelLoop, Program, Reduction, SeqBlock,
                               Span, TimeLoop)
from repro.sim import engine

N = 32
COLS = 512

#: wall seconds one test (setup, call and teardown) may take before the
#: run stops with every thread's stack on stderr: a hang fails with its
#: name, well inside CI's 3-minute step.  The slowest test takes ~8 s.
TEST_WALL_LIMIT_S = 60.0

_real_stderr = None      # a dup of fd 2 that pytest's capture never owns


def pytest_configure(config):
    # pytest's capture is suspended between conftest loading and the
    # first test, so fd 2 is the process's real stderr here
    global _real_stderr
    _real_stderr = os.dup(2)


def pytest_unconfigure(config):
    os.close(_real_stderr)


def pytest_runtest_logstart(nodeid, location):
    faulthandler.dump_traceback_later(TEST_WALL_LIMIT_S, exit=True,
                                      file=_real_stderr)


def pytest_runtest_logfinish(nodeid, location):
    faulthandler.cancel_dump_traceback_later()


class _EngineThreading:
    """``threading`` as :mod:`repro.sim.engine` sees it, with ``Thread``
    replaced by a subclass that records every thread started."""

    def __init__(self, started):
        class Thread(threading.Thread):
            def start(self):
                started.append(self.name)
                super().start()

        self.Thread = Thread

    def __getattr__(self, name):
        return getattr(threading, name)


@pytest.fixture(autouse=True)
def no_leaked_simproc_threads(request, monkeypatch):
    """A simulated-process thread that outlives ``Simulator.run`` fails the
    test that leaked it (each one used to cost a silent 5 s join), and
    outside ``tests/test_engine.py`` -- which owns the thread kind's
    contract tests -- so does starting one at all: every other program is a
    generator program."""
    started = []
    if request.path.name != "test_engine.py":
        monkeypatch.setattr(engine, "threading", _EngineThreading(started))
    yield
    leaked = [t.name for t in threading.enumerate()
              if t.name.startswith("simproc-")]
    assert not leaked, f"simulated-process threads leaked: {leaked}"
    assert not started, (f"thread processes started outside "
                         f"tests/test_engine.py: {started}")


def fingerprint_digest(app, variant, nprocs):
    """sha256 (first 16 hex digits) of a ``test`` run's ``fingerprint()``
    without ``tag`` and ``signature`` (the signature's last bits may follow
    the host's SIMD width; see benchmarks/perf/child.py)."""
    doc = execute(RunRequest(app, variant, nprocs, "test")).fingerprint()
    doc.pop("tag")
    doc.pop("signature")
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def lock_acquire(tmk, lock):
    """Acquire ``lock`` from a generator program (``yield from``)."""
    steps = tmk.lock_acquire_steps(lock)
    if steps is not None:
        yield from steps


def lock_release(tmk, lock):
    """Release ``lock`` from a generator program (``yield from``)."""
    steps = tmk.lock_release_steps(lock)
    if steps is not None:
        yield from steps


def parallel_loops(program):
    """The program's parallel loop instances in execution order."""
    for stmt in program.flat_statements():
        if isinstance(stmt, ParallelLoop):
            yield stmt


def stencil_program(iters=3):
    """Jacobi-shaped: seq init, halo stencil, aligned copy, sum reduction."""

    def init_kernel(views):
        views["a"][:, 0] = 1.0
        views["a"][0, :] = 1.0

    def stencil_kernel(views, lo, hi):
        a, b = views["a"], views["b"]
        lo2, hi2 = max(lo, 1), min(hi, N - 1)
        if hi2 <= lo2:
            return None
        src = a[lo2 - 1:hi2 + 1]
        b[lo2:hi2, 1:-1] = 0.25 * (src[:-2, 1:-1] + src[2:, 1:-1]
                                   + src[1:-1, :-2] + src[1:-1, 2:])

    def copy_kernel(views, lo, hi):
        lo2, hi2 = max(lo, 1), min(hi, N - 1)
        if hi2 > lo2:
            views["a"][lo2:hi2, 1:-1] = views["b"][lo2:hi2, 1:-1]
        return {"sum": float(views["a"][lo:hi].sum(dtype=np.float64))}

    return Program(
        "stencil",
        arrays=[ArrayDecl("a", (N, COLS), np.float32, distribute=0),
                ArrayDecl("b", (N, COLS), np.float32, distribute=0)],
        body=[SeqBlock("init", init_kernel,
                       writes=[Access("a", (Full(), Full()))], cost=1e-5),
              Mark("start"),
              TimeLoop("iters", iters, [
                  ParallelLoop("stencil", N, stencil_kernel,
                               reads=[Access("a", (Span(-1, 1), Full()))],
                               writes=[Access("b", (Span(), Full()))],
                               align=("b", 0), cost_per_iter=1e-6),
                  ParallelLoop("copy", N, copy_kernel,
                               reads=[Access("b", (Span(), Full()))],
                               writes=[Access("a", (Span(), Full()))],
                               reductions=[Reduction("sum")],
                               align=("a", 0), cost_per_iter=1e-6)]),
              Mark("stop")])


def irregular_program(iters=3, m=64, p=4):
    """NBF-shaped: indirect gathers, scatter accumulation, update loop."""
    rng = np.random.default_rng(7)
    partners = np.sort(rng.integers(0, m, size=(m, p)).astype(np.int32),
                       axis=1)

    def init_kernel(views):
        views["pos"][:] = np.linspace(0.0, 1.0, m)[:, None]
        views["prt"][:] = partners

    def footprint(views, lo, hi):
        own = np.arange(lo, hi, dtype=np.int64)
        return np.unique(np.concatenate(
            [own, views["prt"][lo:hi].astype(np.int64).ravel()]))

    def force_kernel(views, lo, hi):
        pos, f, prt = views["pos"], views["forces"], views["prt"]
        idx = prt[lo:hi].astype(np.int64)
        d = pos[lo:hi, None, :] - pos[idx] + 0.01
        np.add.at(f, np.arange(lo, hi), d.sum(axis=1))
        np.subtract.at(f.reshape(-1, 1), idx.ravel(),
                       d.reshape(-1, 1))

    def update_kernel(views, lo, hi):
        views["pos"][lo:hi] += 0.01 * views["forces"][lo:hi]
        return {"k": float((views["pos"][lo:hi] ** 2).sum(dtype=np.float64))}

    return Program(
        "irregular",
        arrays=[ArrayDecl("pos", (m, 1), np.float64, distribute=0),
                ArrayDecl("forces", (m, 1), np.float64, distribute=0),
                ArrayDecl("prt", (m, p), np.int32, distribute=0)],
        body=[SeqBlock("init", init_kernel,
                       writes=[Access("pos", (Full(), Full())),
                               Access("prt", (Full(), Full()))], cost=1e-6),
              Mark("start"),
              TimeLoop("steps", iters, [
                  ParallelLoop("forces", m, force_kernel,
                               reads=[Access("pos", Irregular(footprint)),
                                      Access("prt", (Span(),))],
                               writes=[Access("forces",
                                              Irregular(footprint))],
                               accumulate=["forces"],
                               align=("pos", 0), cost_per_iter=1e-6,
                               merge_cost_per_iter=1e-8),
                  ParallelLoop("update", m, update_kernel,
                               reads=[Access("forces", (Span(), Full()))],
                               writes=[Access("pos", (Span(), Full()))],
                               reductions=[Reduction("k")],
                               align=("pos", 0), cost_per_iter=1e-7)]),
              Mark("stop")])


def triangular_program(n=24):
    """MGS-shaped: per-iteration factories, cyclic schedule, Point reads."""
    from repro.compiler.ir import Point

    def init_kernel(views):
        v = views["v"]
        idx = np.arange(n)
        v[...] = np.sin(0.3 * (idx[:, None] + 1) * (idx[None, :] + 2)) * 0.3
        v[idx, idx] += 3.0

    def iteration(i):
        def norm_kernel(views, _i=i):
            row = views["v"][_i]
            views["v"][_i] = row / np.sqrt(float((row.astype(np.float64) ** 2).sum()))

        def orth_kernel(views, rows, _i=i):
            v = views["v"]
            vi = v[_i].astype(np.float64)
            coef = v[rows].astype(np.float64) @ vi
            v[rows] = (v[rows] - coef[:, None] * vi[None, :]).astype(v.dtype)

        stmts = [SeqBlock(f"norm[{i}]", norm_kernel,
                          reads=[Access("v", (Point(i), Full()))],
                          writes=[Access("v", (Point(i), Full()))],
                          cost=1e-7)]
        if i + 1 < n:
            stmts.append(ParallelLoop(
                f"orth[{i}]", n, orth_kernel,
                reads=[Access("v", (Point(i), Full())),
                       Access("v", (Span(), Full()))],
                writes=[Access("v", (Span(), Full()))],
                schedule="cyclic", start=i + 1,
                align=("v", 0), cost_per_iter=1e-7))
        return stmts

    return Program(
        "triangular",
        arrays=[ArrayDecl("v", (n, n), np.float32, distribute=0,
                          dist_kind="cyclic")],
        body=[SeqBlock("init", init_kernel,
                       writes=[Access("v", (Full(), Full()))], cost=1e-6),
              Mark("start"),
              TimeLoop("vectors", n, iteration),
              Mark("stop")])


@pytest.fixture
def stencil_prog():
    return stencil_program()


@pytest.fixture
def irregular_prog():
    return irregular_program()


@pytest.fixture
def triangular_prog():
    return triangular_program()

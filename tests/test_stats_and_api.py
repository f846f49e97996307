"""Tests for DSM statistics, the Tmk facade, and the request server."""

import numpy as np
import pytest

from repro.sim.engine import Deadlock
from repro.tmk.api import Tmk, TmkWorld, tmk_run
from repro.tmk.stats import DsmStats


# ---------------------------------------------------------------------- #
# DsmStats

def test_stats_snapshot_is_independent():
    s = DsmStats()
    s.read_faults = 3
    snap = s.snapshot()
    s.read_faults = 10
    assert snap.read_faults == 3


def test_stats_delta():
    a = DsmStats(read_faults=10, barriers=4)
    b = DsmStats(read_faults=3, barriers=1)
    d = a.delta(b)
    assert d.read_faults == 7 and d.barriers == 3 and d.twins_created == 0


def test_stats_summary_omits_zeros():
    s = DsmStats(read_faults=2)
    out = s.summary()
    assert "read_faults=2" in out
    assert "twins_created" not in out


# ---------------------------------------------------------------------- #
# Tmk facade

def _setup(space):
    space.alloc("a", (8, 512), np.float32)


def test_block_range_helper():
    def prog(tmk):
        return tmk.block_range(10)

    r = tmk_run(3, prog, _setup)
    assert r.results == [(0, 4), (4, 7), (7, 10)]


def test_compute_charges_time():
    def prog(tmk):
        yield from tmk.compute_gen(0.25)
        return tmk.now

    r = tmk_run(2, prog, _setup)
    assert all(t >= 0.25 for t in r.results)


def test_unknown_array_raises():
    def prog(tmk):
        with pytest.raises(KeyError):
            tmk.array("nope")

    tmk_run(1, prog, _setup)


def test_world_carries_configuration():
    def prog(tmk):
        assert tmk.world.gc_epochs == 5
        assert tmk.world.nprocs == tmk.nprocs
        assert tmk.world.nodes[tmk.pid] is tmk.node
        return True

    r = tmk_run(2, prog, _setup, gc_epochs=5)
    assert all(r.results)


def test_run_result_carries_dsm_stats():
    def prog(tmk):
        a = tmk.array("a")
        if tmk.pid == 0:
            a.write((slice(0, 1),), 1.0)
        tmk.barrier()
        if tmk.pid == 1:
            a.read((slice(0, 1),))

    r = tmk_run(2, prog, _setup)
    assert r.dsm_stats.barriers == 2
    assert r.dsm_stats.read_faults == 1


def test_args_forwarded_to_program():
    def prog(tmk, factor):
        return tmk.pid * factor

    r = tmk_run(3, prog, _setup, args=(10,))
    assert r.results == [0, 10, 20]


# ---------------------------------------------------------------------- #
# failure behaviour

def test_mismatched_barriers_deadlock():
    """A program where one processor skips a barrier must deadlock loudly,
    not hang or silently proceed."""

    def prog(tmk):
        if tmk.pid == 0:
            tmk.barrier()
        # pid 1 never arrives

    with pytest.raises(Deadlock):
        tmk_run(2, prog, _setup)


def test_lock_never_granted_deadlocks():
    def prog(tmk):
        if tmk.pid == 1:
            tmk.lock_acquire(0)
            # never released; pid 0 then waits forever
        tmk.barrier()
        if tmk.pid == 0:
            tmk.lock_acquire(0)

    with pytest.raises(Deadlock):
        tmk_run(2, prog, _setup)


def test_program_exception_reports_processor():
    def prog(tmk):
        if tmk.pid == 2:
            raise RuntimeError("kaboom on cpu2")

    from repro.sim.engine import SimError
    with pytest.raises(SimError, match="kaboom"):
        tmk_run(4, prog, _setup)

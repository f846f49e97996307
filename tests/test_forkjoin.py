"""Tests for the Section 2.3 fork-join interfaces (repro.tmk.forkjoin)."""

import numpy as np
import pytest

from repro.tmk.api import tmk_run
from repro.tmk.forkjoin import (ImprovedForkJoin, OldForkJoin,
                                alloc_old_interface_control)


def _run_forkjoin(nprocs, improved, nloops=3, payload_hook=None):
    """Drive ``nloops`` parallel loops that increment a shared slab."""

    def setup(space):
        space.alloc("data", (nprocs, 1024), np.float32)
        if not improved:
            alloc_old_interface_control(space)

    def prog(tmk):
        fj = (ImprovedForkJoin if improved else OldForkJoin)(tmk.node)
        data = tmk.array("data")
        if tmk.pid == 0:
            for loop in range(nloops):
                yield from fj.fork_gen(loop, (loop * 10,))
                row = (yield from data.read_gen((slice(0, 1),))).copy()
                yield from data.write_gen((slice(0, 1),), row + 1)
                yield from fj.join_gen()
            yield from fj.shutdown_gen()
            cell = yield from data.read_gen((slice(0, 1), slice(0, 1)))
            return float(cell[0, 0])
        else:
            seen = []
            while True:
                work = yield from fj.wait_for_work_gen()
                if work is None:
                    break
                sub, params = work
                seen.append((int(sub), tuple(params)))
                mine = (slice(tmk.pid, tmk.pid + 1),)
                row = (yield from data.read_gen(mine)).copy()
                yield from data.write_gen(mine, row + 1)
                yield from fj.work_done_gen()
            return seen

    return tmk_run(nprocs, prog, setup)


@pytest.mark.parametrize("improved", [True, False])
def test_workers_receive_every_dispatch(improved):
    r = _run_forkjoin(4, improved)
    assert r.results[0] == 3.0
    for w in range(1, 4):
        assert [s for s, _p in r.results[w]] == [0, 1, 2]
        assert [p for _s, p in r.results[w]] == [(0.0,), (10.0,), (20.0,)]


def test_improved_interface_message_count():
    """2(n-1) synchronization messages per parallel loop."""
    n, loops = 8, 5
    r = _run_forkjoin(n, improved=True, nloops=loops)
    sync = r.stats.by_category["sync"][0]
    # loops + the shutdown fork (one extra one-to-all)
    assert sync == (loops * 2 + 1) * (n - 1)


def test_old_interface_message_count():
    """8(n-1) messages per parallel loop: two barriers (4(n-1)) plus two
    control-page faults per worker (4(n-1))."""
    n, loops = 8, 5
    r = _run_forkjoin(n, improved=False, nloops=loops)
    sync = r.stats.by_category["sync"][0]
    ctrl_reqs = r.stats.by_category["diff_req"][0]
    ctrl_reps = r.stats.by_category["diff_rep"][0]
    # barriers: 2 per loop + 1 for the shutdown fork
    assert sync == (loops * 2 + 1) * 2 * (n - 1)
    # control faults: at most 2 per worker per dispatch (pages stay valid
    # only when contents did not change; the subroutine id page changes
    # every dispatch)
    assert ctrl_reqs == ctrl_reps
    assert ctrl_reqs >= loops * (n - 1)
    total_per_loop = (sync + ctrl_reqs + ctrl_reps) / (loops + 0.5)
    assert total_per_loop > 6 * (n - 1)   # ~8(n-1), vs 2(n-1) improved


def test_old_interface_slower_than_improved():
    fast = _run_forkjoin(8, improved=True, nloops=10)
    slow = _run_forkjoin(8, improved=False, nloops=10)
    assert slow.time > fast.time


def test_fork_payload_piggyback():
    """The improved interface can carry data on the fork message (the
    sync+data merge used by the optimized MGS)."""
    from repro.tmk.enhanced import PushPayload

    def setup(space):
        space.alloc("vec", (4, 1024), np.float32)

    def prog(tmk):
        fj = ImprovedForkJoin(tmk.node)
        vec = tmk.array("vec")
        if tmk.pid == 0:
            yield from vec.write_gen((slice(0, 1),), 5.0)
            payload = yield from PushPayload.build_gen(
                tmk.node, [(vec.handle, (slice(0, 1),))])
            assert payload is not None
            yield from fj.fork_gen(0, (), payload=payload)
            yield from fj.join_gen()
            yield from fj.shutdown_gen()
            return None
        else:
            yield from fj.wait_for_work_gen()
            before = tmk.world.dsm_stats.read_faults
            # no fault: data was pushed
            val = float((yield from vec.read_gen((0, 0))))
            after = tmk.world.dsm_stats.read_faults
            yield from fj.work_done_gen()
            yield from fj.wait_for_work_gen()
            return (val, after - before)

    r = tmk_run(3, prog, setup)
    for w in (1, 2):
        assert r.results[w] == (5.0, 0)


def test_old_interface_rejects_payload():
    def setup(space):
        alloc_old_interface_control(space)

    def prog(tmk):
        fj = OldForkJoin(tmk.node)
        if tmk.pid == 0:
            with pytest.raises(ValueError):
                yield from fj.fork_gen(0, (), payload=object())
            yield from fj.shutdown_gen()
        else:
            assert (yield from fj.wait_for_work_gen()) is None

    tmk_run(2, prog, setup)


def test_workers_see_master_sequential_writes():
    """Fork is a release/acquire pair: master writes between loops must be
    visible inside the next loop."""

    def setup(space):
        space.alloc("flag", (1,), np.float64)

    def prog(tmk):
        fj = ImprovedForkJoin(tmk.node)
        flag = tmk.array("flag")
        if tmk.pid == 0:
            yield from flag.write_gen((0,), 1.0)
            yield from fj.fork_gen(0, ())
            yield from fj.join_gen()
            yield from flag.write_gen((0,), 2.0)
            yield from fj.fork_gen(1, ())
            yield from fj.join_gen()
            yield from fj.shutdown_gen()
            return None
        vals = []
        while True:
            work = yield from fj.wait_for_work_gen()
            if work is None:
                return vals
            vals.append(float((yield from flag.read_gen((0,)))))
            yield from fj.work_done_gen()

    r = tmk_run(3, prog, setup)
    assert r.results[1] == [1.0, 2.0]
    assert r.results[2] == [1.0, 2.0]

"""Happens-before race detector + schedule-fuzzing harness tests.

Positive controls: two deliberately racy Tmk programs that the detector
MUST flag (a missing barrier, and a lock-free read-modify-write of a
shared scalar), each next to its race-free twin that MUST pass.  Then
the harness itself: the paper's applications are race-free and compute
bit-identical answers under every schedule seed.
"""

import numpy as np
import pytest

from repro.api import RunRequest, execute
from repro.eval.racecheck import cross_check_app, racecheck_app
from repro.serve import RunService
from repro.sim.engine import PARK, Deadlock, Simulator
from repro.tmk.api import tmk_run

from .conftest import lock_acquire, lock_release

NPROCS = 4


def _setup(space):
    space.alloc("x", (16,), np.float64)


# --------------------------------------------------------------------- #
# control 1: missing barrier between initialization and use


def _racy_missing_barrier(tmk):
    x = tmk.array("x")
    if tmk.pid == 0:
        yield from x.write_gen((slice(0, 8),), 1.0, source="init:x")
    # BUG: no barrier — the other processors read concurrently with p0's
    # initialization write
    v = float((yield from x.read_gen((slice(0, 8),), source="use:x")).sum())
    yield from tmk.barrier_gen()
    return v


def _fixed_missing_barrier(tmk):
    x = tmk.array("x")
    if tmk.pid == 0:
        yield from x.write_gen((slice(0, 8),), 1.0, source="init:x")
    yield from tmk.barrier_gen()
    v = float((yield from x.read_gen((slice(0, 8),), source="use:x")).sum())
    yield from tmk.barrier_gen()
    return v


def test_missing_barrier_is_flagged():
    res = tmk_run(NPROCS, _racy_missing_barrier, _setup, racecheck=True)
    rc = res.racecheck
    assert rc.true_races, rc.format()
    assert not rc.ok


def test_missing_barrier_attribution():
    """The finding names the writing processor, the page, and both
    IR-level source tags."""
    res = tmk_run(NPROCS, _racy_missing_barrier, _setup, racecheck=True)
    page = res.race_monitor.world.space["x"].first_page
    for f in res.racecheck.true_races:
        assert f.array == "x"
        assert f.page == page
        sides = {(f.pid_a, f.source_a, f.rw_a), (f.pid_b, f.source_b, f.rw_b)}
        rws = {s[2] for s in sides}
        assert rws == {"W", "R"}          # init write vs concurrent read
        writer = next(s for s in sides if s[2] == "W")
        reader = next(s for s in sides if s[2] == "R")
        assert writer == (0, "init:x", "W")
        assert reader[0] != 0 and reader[1] == "use:x"
    # every non-zero processor's read races with p0's write
    readers = {f.pid_a for f in res.racecheck.true_races} \
        | {f.pid_b for f in res.racecheck.true_races}
    assert readers == set(range(NPROCS))


def test_barrier_fix_passes():
    res = tmk_run(NPROCS, _fixed_missing_barrier, _setup, racecheck=True)
    assert res.racecheck.ok, res.racecheck.format()
    assert not res.racecheck.true_races


# --------------------------------------------------------------------- #
# control 2: lock-free update of a shared scalar


def _racy_scalar(tmk):
    x = tmk.array("x")
    # BUG: read-modify-write with no lock
    cur = float((yield from x.read_gen((slice(0, 1),), source="accum:x"))[0])
    yield from x.write_gen((slice(0, 1),), cur + 1.0, source="accum:x")
    yield from tmk.barrier_gen()
    return cur


def _locked_scalar(tmk):
    x = tmk.array("x")
    yield from lock_acquire(tmk, 0)
    cur = float((yield from x.read_gen((slice(0, 1),), source="accum:x"))[0])
    yield from x.write_gen((slice(0, 1),), cur + 1.0, source="accum:x")
    yield from lock_release(tmk, 0)
    yield from tmk.barrier_gen()
    return cur


def test_lock_free_scalar_update_is_flagged():
    res = tmk_run(NPROCS, _racy_scalar, _setup, racecheck=True)
    rc = res.racecheck
    assert rc.true_races, rc.format()
    page = res.race_monitor.world.space["x"].first_page
    kinds = set()
    for f in rc.true_races:
        assert f.array == "x" and f.page == page
        assert {f.source_a, f.source_b} == {"accum:x"}
        kinds.add(frozenset((f.rw_a, f.rw_b)))
    assert frozenset(("W",)) in kinds      # the W/W pair is caught


def test_locked_scalar_update_passes():
    res = tmk_run(NPROCS, _locked_scalar, _setup, racecheck=True)
    assert res.racecheck.ok, res.racecheck.format()
    assert not res.racecheck.true_races


# --------------------------------------------------------------------- #
# one edge per test: each synchronization message carries its sender's
# release snapshot, and in each program below that edge is the only
# ordering between a write and a read on another processor


def _with_lock(tmk, locked, body):
    """``body()`` under lock 0, or bare when ``locked`` is False."""
    if locked:
        yield from lock_acquire(tmk, 0)
    out = yield from body()
    if locked:
        yield from lock_release(tmk, 0)
    return out


def _write_x(tmk, source):
    def body():
        yield from tmk.array("x").write_gen((slice(0, 8),), 1.0,
                                            source=source)
    return body


def _read_x(tmk, source):
    def body():
        view = yield from tmk.array("x").read_gen((slice(0, 8),),
                                                  source=source)
        return float(view.sum())
    return body


def test_improved_fork_and_join_edges():
    """Fork: the master's write before it, the workers' reads inside.
    Join: the workers' writes inside, the master's read after it."""
    from repro.tmk.forkjoin import ImprovedForkJoin

    def prog(tmk):
        fj = ImprovedForkJoin(tmk.node)
        x = tmk.array("x")
        if tmk.pid == 0:
            yield from x.write_gen((slice(0, 8),), 1.0, source="master:x")
            yield from fj.fork_gen(0, ())
            yield from fj.join_gen()
            got = yield from x.read_gen((slice(8, 8 + NPROCS),),
                                        source="gather:x")
            yield from fj.shutdown_gen()
            return got.tolist()
        yield from fj.wait_for_work_gen()
        v = float((yield from x.read_gen((slice(0, 8),),
                                         source="worker:x")).sum())
        yield from x.write_gen((8 + tmk.pid,), v, source="worker:x")
        yield from fj.work_done_gen()
        yield from fj.wait_for_work_gen()
        return v

    res = tmk_run(NPROCS, prog, _setup, racecheck=True)
    assert res.racecheck.ok, res.racecheck.format()
    assert res.results[0] == [0.0] + [8.0] * (NPROCS - 1)
    # master: its write and its read; each worker: one read, one write
    assert res.racecheck.n_events == 2 + 2 * (NPROCS - 1)


def test_tree_reduction_edges_at_five():
    """Up the binomial tree and back down: every slot written before the
    reduction is ordered before every read after it."""
    from operator import add

    from repro.tmk.reduction import tmk_reduce_gen

    def prog(tmk):
        x = tmk.array("x")
        yield from x.write_gen((tmk.pid,), float(tmk.pid + 1),
                               source="slot:x")
        total = yield from tmk_reduce_gen(tmk.node, 1.0, add)
        got = yield from x.read_gen((slice(0, 5),), source="all:x")
        return total, float(got.sum())

    res = tmk_run(5, prog, _setup, racecheck=True)
    assert res.racecheck.ok, res.racecheck.format()
    assert res.results == [(5.0, 15.0)] * 5
    assert res.racecheck.n_events == 2 * 5     # one write, one read each


def test_halo_push_edge():
    """The receiver installs the pushed diff and reads it: the push is
    the only message between them."""
    from repro.tmk import enhanced

    def prog(tmk):
        x = tmk.array("x")
        if tmk.pid == 0:
            yield from x.write_gen((slice(0, 8),), 2.0, source="halo:x")
            yield from enhanced.push_regions_gen(
                tmk.node, [(x.handle, (slice(0, 8),))], dests=[1])
            return None
        yield from enhanced.expect_pushes_gen(tmk.node, 1)
        return float((yield from x.read_gen((slice(0, 8),),
                                            source="use:x")).sum())

    res = tmk_run(2, prog, _setup, racecheck=True)
    assert res.racecheck.ok, res.racecheck.format()
    assert res.results[1] == 16.0
    assert res.racecheck.n_events == 2


def _holder_grant_prog(locked, queued):
    """p1 (not lock 0's manager) writes x under the lock; p2 then reads it
    under the lock, so p1 grants it.  ``queued``: p2's forward reaches p1
    while p1 still holds the lock, and p1's release sends the grant;
    otherwise the forward arrives after that release and p1's request
    server grants it at once."""

    def prog(tmk):
        if tmk.pid == 1:
            def write():
                if queued:
                    yield from tmk.compute_gen(1e-3)   # p2's forward waits
                yield from _write_x(tmk, "holder:x")()
            yield from _with_lock(tmk, locked, write)
        elif tmk.pid == 2:
            yield from tmk.compute_gen(1e-4 if queued else 1e-2)
            return (yield from _with_lock(tmk, locked,
                                          _read_x(tmk, "next:x")))
        return None

    return prog


@pytest.mark.parametrize("queued", [True, False],
                         ids=["queued-forward", "served-by-holder-server"])
def test_lock_grant_from_holder_edge(queued):
    res = tmk_run(3, _holder_grant_prog(True, queued), _setup,
                  racecheck=True)
    assert res.racecheck.ok, res.racecheck.format()
    assert res.results[2] == 8.0
    assert res.dsm_stats.lock_remote_acquires == 2   # p1 from p0, p2 via p1
    assert res.racecheck.n_events == 2
    racy = tmk_run(3, _holder_grant_prog(False, queued), _setup,
                   racecheck=True)
    assert not racy.racecheck.ok
    assert racy.racecheck.n_events == 2


def _regrant_prog(locked):
    """p0 (lock 0's manager) writes x under the lock.  p1 then reads it
    under the lock twice: the first grant carries p0's release, the
    second is the manager's empty re-grant to its last requester."""

    def prog(tmk):
        if tmk.pid == 0:
            yield from _with_lock(tmk, locked, _write_x(tmk, "owner:x"))
            return None
        yield from tmk.compute_gen(1e-3)
        first = yield from _with_lock(tmk, locked, _read_x(tmk, "first:x"))
        again = yield from _with_lock(tmk, locked, _read_x(tmk, "again:x"))
        return first, again

    return prog


def test_lock_empty_regrant_edge():
    res = tmk_run(2, _regrant_prog(True), _setup, racecheck=True)
    assert res.racecheck.ok, res.racecheck.format()
    assert res.results[1] == (8.0, 8.0)
    assert res.dsm_stats.lock_remote_acquires == 2
    # p0's write, p1's two reads (its release between them ticks its clock)
    assert res.racecheck.n_events == 3
    racy = tmk_run(2, _regrant_prog(False), _setup, racecheck=True)
    assert not racy.racecheck.ok
    sources = {src for f in racy.racecheck.true_races
               for src in (f.source_a, f.source_b)}
    assert sources == {"owner:x", "first:x", "again:x"}


# --------------------------------------------------------------------- #
# the real applications are race-free under schedule fuzzing


def test_jacobi_spf_race_free_and_deterministic():
    rep = racecheck_app("jacobi", "spf", seeds=3, nprocs=NPROCS)
    assert rep.ok, rep.format()
    assert rep.deterministic
    assert not rep.true_races
    # elementwise stencil: bit-exact vs seq
    assert not rep.arrays_close and not rep.arrays_wrong

    # one run path: seeds retired through a worker pool judge the same
    def evidence(r):
        return (r.deterministic, [(x.seed, x.hashes, x.time) for x in r.runs],
                r.arrays_exact, len(r.true_races))

    with RunService(workers=2) as svc:
        pooled = racecheck_app("jacobi", "spf", seeds=3, nprocs=NPROCS,
                               service=svc)
    assert evidence(pooled) == evidence(rep)


def test_cross_check_is_tier_independent():
    """``cross_check_app`` hands its service to the racecheck it runs:
    the verdict document is the same in-process and on a pool."""
    kwargs = dict(seeds=2, nprocs=NPROCS, mutations=1)
    rep = cross_check_app("jacobi", **kwargs)
    assert rep.ok, rep.format()
    with RunService(workers=2) as svc:
        pooled = cross_check_app("jacobi", service=svc, **kwargs)
        cache = svc.stats()["cache"]
        # seed 1 ran there: one program lookup (the oracle time is kept
        # outside the program cache)
        assert cache["hits"] + cache["misses"] == 1
    assert pooled.as_doc() == rep.as_doc()


def test_igrid_spf_acceptance():
    """The issue's acceptance bar: igrid/spf over 5 seeds — zero true
    races, numerics bit-identical to the sequential reference."""
    rep = racecheck_app("igrid", "spf", seeds=5, nprocs=NPROCS)
    assert rep.ok, rep.format()
    assert rep.deterministic
    assert not rep.arrays_close and not rep.arrays_wrong
    assert not rep.true_races


def test_jacobi_hand_tmk_race_free():
    rep = racecheck_app("jacobi", "tmk", seeds=2, nprocs=NPROCS)
    assert rep.ok, rep.format()
    assert not rep.true_races


def test_spf_lock_reductions_race_free():
    """The lock-folded reduction path (no tree reductions) exercises the
    lock-transfer happens-before edges."""
    rep = racecheck_app("nbf", "spf", seeds=2, nprocs=NPROCS)
    assert not rep.true_races, rep.format()


def test_run_variant_carries_racecheck():
    res = execute(RunRequest("jacobi", "spf", nprocs=NPROCS, preset="test",
                             schedule_seed=3, racecheck=True))
    assert res.races is not None and res.races.ok


def test_run_variant_rejects_racecheck_on_message_passing():
    with pytest.raises(ValueError, match="DSM"):
        execute(RunRequest("jacobi", "xhpf", nprocs=NPROCS, preset="test",
                           racecheck=True))


def test_racecheck_app_rejects_non_dsm_variant():
    with pytest.raises(ValueError, match="DSM"):
        racecheck_app("jacobi", "pvme", seeds=1, nprocs=NPROCS)


# --------------------------------------------------------------------- #
# Deadlock diagnostics name the parked processes and their park sites


def test_deadlock_names_process_and_park_site():
    sim = Simulator()

    def stuck():
        yield PARK, ("waiting-on", 42)

    sim.add_process("stuck", stuck)
    with pytest.raises(Deadlock) as ei:
        sim.run()
    msg = str(ei.value)
    assert "stuck" in msg
    assert "waiting-on" in msg and "42" in msg
    assert "1 process(es)" in msg


def test_dsm_barrier_deadlock_names_park_site():
    def lopsided(tmk):
        if tmk.pid == 0:
            yield from tmk.barrier_gen()   # p1 never arrives

    with pytest.raises(Deadlock) as ei:
        tmk_run(2, lopsided, _setup)
    msg = str(ei.value)
    assert "cpu0" in msg
    assert "barrier" in msg or "recv" in msg

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
# the real applications are race-free under schedule fuzzing


def test_jacobi_spf_race_free_and_deterministic():
    rep = racecheck_app("jacobi", "spf", seeds=3, nprocs=NPROCS)
    assert rep.ok, rep.format()
    assert rep.deterministic
    assert not rep.true_races
    assert rep.all_exact          # elementwise stencil: bit-exact vs seq

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
        # seed 1 ran there: one program lookup, one oracle-time lookup
        assert cache["hits"] + cache["misses"] == 2
    assert pooled.as_doc() == rep.as_doc()


def test_igrid_spf_acceptance():
    """The issue's acceptance bar: igrid/spf over 5 seeds — zero true
    races, numerics bit-identical to the sequential reference."""
    rep = racecheck_app("igrid", "spf", seeds=5, nprocs=NPROCS)
    assert rep.ok, rep.format()
    assert rep.deterministic and rep.all_exact
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

"""Tests for seeded fault injection and reliable delivery (repro.sim.faults)."""

import numpy as np
import pytest

from repro.msg.endpoint import Comm
from repro.sim import Cluster, Deadlock, SimError
from repro.sim.faults import (FaultInjector, FaultPlan, FaultRates,
                              NodeStall, faults_enabled_from_env)

HEAVY = FaultPlan(rates=FaultRates(drop=0.3, dup=0.2, reorder=0.3, delay=0.3))


def pingpong(env, rounds=20):
    """Rank 0 <-> rank 1 strict request/reply; any loss hangs, any
    reorder or duplication corrupts the echoed sequence."""
    comm = Comm(env)
    peer = 1 - env.pid
    log = []
    for i in range(rounds):
        if env.pid == 0:
            yield from comm.send_gen(peer, i, tag=5)
            log.append((yield from comm.recv_gen(src=peer, tag=6)))
        else:
            got = yield from comm.recv_gen(src=peer, tag=5)
            log.append(got)
            yield from comm.send_gen(peer, got * 10, tag=6)
    return log


def flood(env, count=30):
    """Rank 0 streams numbered payloads; rank 1 must see them in order."""
    comm = Comm(env)
    if env.pid == 0:
        for i in range(count):
            yield from comm.send_gen(1, i, tag=3)
    else:
        got = []
        for _ in range(count):
            got.append((yield from comm.recv_gen(src=0, tag=3)))
        return got


# --------------------------------------------------------------------------- #
# the injector itself


def test_injector_is_deterministic_per_seed():
    a = FaultInjector(HEAVY.with_seed(7), nprocs=2)
    b = FaultInjector(HEAVY.with_seed(7), nprocs=2)
    for _ in range(200):
        va, vb = a.draw("data"), b.draw("data")
        assert (va.drop, va.dup, va.delay) == (vb.drop, vb.dup, vb.delay)
    assert vars(a.stats) == vars(b.stats)


def test_injector_seeds_differ():
    a = FaultInjector(HEAVY.with_seed(0), nprocs=2)
    b = FaultInjector(HEAVY.with_seed(1), nprocs=2)
    seq_a = [a.draw("data").drop for _ in range(100)]
    seq_b = [b.draw("data").drop for _ in range(100)]
    assert seq_a != seq_b


def test_category_overrides():
    plan = FaultPlan(rates=FaultRates(),
                     overrides={"sync": FaultRates(drop=1.0)})
    inj = FaultInjector(plan, nprocs=2)
    assert not inj.draw("data").drop
    assert inj.draw("sync").drop


def test_faults_env_toggle(monkeypatch):
    monkeypatch.delenv("TMK_FAULTS", raising=False)
    assert faults_enabled_from_env() is False
    for spelling in ("1", "true", "ON", "Yes"):
        monkeypatch.setenv("TMK_FAULTS", spelling)
        assert faults_enabled_from_env() is True
    for spelling in ("0", "false", "OFF", "no"):
        monkeypatch.setenv("TMK_FAULTS", spelling)
        assert faults_enabled_from_env() is False
    monkeypatch.setenv("TMK_FAULTS", "flase")
    with pytest.raises(ValueError):
        faults_enabled_from_env()


def test_fastpath_env_spellings(monkeypatch):
    from repro.tmk.faststate import fastpath_enabled_from_env
    monkeypatch.delenv("TMK_FASTPATH", raising=False)
    assert fastpath_enabled_from_env() is True
    for spelling in ("0", "False", "off", "NO"):
        monkeypatch.setenv("TMK_FASTPATH", spelling)
        assert fastpath_enabled_from_env() is False


# --------------------------------------------------------------------------- #
# reliable delivery


def test_reliable_delivery_survives_heavy_faults():
    for seed in range(4):
        r = Cluster(nprocs=2, faults=HEAVY.with_seed(seed)).run(pingpong)
        assert r.results[0] == [i * 10 for i in range(20)]
        assert r.results[1] == list(range(20))
        assert r.stats.retransmissions > 0   # the adversary did strike


def test_reliable_delivery_preserves_fifo_under_reorder():
    plan = FaultPlan(rates=FaultRates(reorder=0.5, dup=0.2))
    for seed in range(3):
        r = Cluster(nprocs=2, faults=plan.with_seed(seed)).run(flood)
        assert r.results[1] == list(range(30))


def test_unreliable_wire_actually_loses_messages():
    """reliable=False exposes the raw faulty wire: a certain drop hangs
    the receiver, and the Deadlock report shows the empty mailbox."""
    plan = FaultPlan(rates=FaultRates(drop=1.0), reliable=False)

    def prog(env):
        comm = Comm(env)
        if env.pid == 0:
            yield from comm.send_gen(1, "x", tag=1)
        else:
            yield from comm.recv_gen(src=0, tag=1)

    with pytest.raises(Deadlock) as exc:
        Cluster(nprocs=2, faults=plan).run(prog)
    assert "waiting on recv(src=0, tag=1)" in str(exc.value)


def test_retransmission_gives_up_after_max_attempts():
    plan = FaultPlan(rates=FaultRates(drop=1.0), max_attempts=4)

    def prog(env):
        comm = Comm(env)
        if env.pid == 0:
            yield from comm.send_gen(1, "x", tag=1)
        else:
            yield from comm.recv_gen(src=0, tag=1)

    with pytest.raises(SimError, match="gave up"):
        Cluster(nprocs=2, faults=plan).run(prog)


def test_duplicates_are_suppressed():
    plan = FaultPlan(rates=FaultRates(dup=1.0))
    cluster = Cluster(nprocs=2, faults=plan)
    r = cluster.run(flood)
    assert r.results[1] == list(range(30))
    # every message is doubled; most extra copies are suppressed (copies
    # still in flight when the last process finishes are never popped)
    assert r.stats.dup_suppressed >= 20


def test_node_stall_defers_delivery():
    stall = NodeStall(node=1, at=0.0, duration=0.5)
    plan = FaultPlan(rates=FaultRates(), stalls=(stall,))

    def prog(env):
        comm = Comm(env)
        if env.pid == 0:
            yield from comm.send_gen(1, "x", tag=1)
        else:
            yield from comm.recv_gen(src=0, tag=1)
            return env.now

    r = Cluster(nprocs=2, faults=plan).run(prog)
    assert r.results[1] >= stall.end
    assert Cluster(nprocs=2).run(prog).results[1] < 0.01


def test_slow_node_adds_latency():
    plan = FaultPlan(rates=FaultRates(), slow_nodes={1: 0.01})

    def prog(env):
        comm = Comm(env)
        if env.pid == 0:
            yield from comm.send_gen(1, "x", tag=1)
        else:
            yield from comm.recv_gen(src=0, tag=1)
            return env.now

    slow = Cluster(nprocs=2, faults=plan).run(prog).results[1]
    fast = Cluster(nprocs=2).run(prog).results[1]
    assert slow - fast >= 0.01 - 1e-9


def test_zero_rate_plan_matches_perfect_wire():
    """With all rates zero the recovery machinery (seq numbers, acks,
    timers) must be invisible: identical virtual time, message counts and
    byte totals.  (`events` legitimately differs: every ack and retransmit
    timer is one more event.)"""
    quiet = FaultPlan(rates=FaultRates(), stalls=())
    for prog in (pingpong, flood):
        a = Cluster(nprocs=2).run(prog)
        b = Cluster(nprocs=2, faults=quiet).run(prog)
        assert a.results == b.results
        assert a.time == b.time
        assert a.stats.messages == b.stats.messages
        assert a.stats.bytes == b.stats.bytes
        assert b.stats.retransmissions == 0


def test_faults_are_reproducible_end_to_end():
    """Same seed, same run: virtual times and every counter identical."""
    runs = [Cluster(nprocs=2, faults=HEAVY.with_seed(3)).run(pingpong)
            for _ in range(2)]
    assert runs[0].time == runs[1].time
    assert runs[0].stats.retransmissions == runs[1].stats.retransmissions
    assert runs[0].stats.acks == runs[1].stats.acks
    assert runs[0].stats.dup_suppressed == runs[1].stats.dup_suppressed


def test_env_toggle_attaches_default_plan(monkeypatch):
    monkeypatch.setenv("TMK_FAULTS", "on")
    cluster = Cluster(nprocs=2)
    assert cluster.net.plan is not None
    monkeypatch.setenv("TMK_FAULTS", "off")
    assert Cluster(nprocs=2).net.plan is None


# --------------------------------------------------------------------------- #
# stats plumbing


def test_network_stats_delta_covers_reliability_counters():
    from repro.sim.network import NetworkStats
    a = NetworkStats(messages=10, bytes=100, retransmissions=3, acks=7,
                     dup_suppressed=2)
    b = a.snapshot()
    b.retransmissions += 5
    b.acks += 1
    d = b.delta(a)
    assert (d.retransmissions, d.acks, d.dup_suppressed) == (5, 1, 0)


def test_dsm_stats_surface_retransmissions():
    from repro.tmk.api import tmk_run

    def setup(space):
        space.alloc("x", (64,), np.float64)

    def program(tmk):
        x = tmk.array("x")
        lo, hi = tmk.block_range(64)
        x.write(slice(lo, hi), float(tmk.pid))
        tmk.barrier()
        x.read()
        tmk.barrier()

    r = tmk_run(2, program, setup, faults=HEAVY.with_seed(1))
    assert r.dsm_stats.retransmissions == r.stats.retransmissions
    assert r.fault_stats is not None and r.fault_stats.total() > 0


# --------------------------------------------------------------------------- #
# the chaos harness


def test_chaos_sweep_smoke():
    """One run path: the document is the same in-process and through a
    worker pool, and the message-passing cell reports its real acks."""
    from repro.eval.chaos import chaos_sweep

    kwargs = dict(apps=["jacobi"], variants=["spf", "pvme"], seeds=[0],
                  nprocs=4, preset="test")
    report = chaos_sweep(**kwargs)
    assert report.ok, report.format()
    assert len(report.cells) == 2
    doc = report.as_doc()
    assert doc["ok"] and doc["cells"][0]["app"] == "jacobi"
    assert doc["cells"][1]["variant"] == "pvme" and doc["cells"][1]["acks"]
    assert chaos_sweep(jobs=2, **kwargs).as_doc() == doc


def test_chaos_spf_spec_cells_run_spf_spec():
    """``spf_spec`` is its own backend (igrid speculates on its UNKNOWN
    loops), so its chaos cells must differ from plain ``spf``'s."""
    from repro.eval.chaos import chaos_sweep

    report = chaos_sweep(apps=["igrid"], variants=["spf", "spf_spec"],
                         seeds=[0], nprocs=4, preset="test")
    assert report.ok, report.format()
    spf, spec = (c.as_doc() for c in report.cells)
    assert (spf.pop("variant"), spec.pop("variant")) == ("spf", "spf_spec")
    assert spf != spec


def test_chaos_failed_baseline_voids_its_pair():
    """A pair whose fault-free baseline cannot run is one ``errors`` entry
    and no cells — not an exception out of the sweep."""
    from repro.eval.chaos import chaos_sweep

    report = chaos_sweep(apps=["igrid"], variants=["spf_opt", "pvme"],
                         seeds=[0, 1], nprocs=4, preset="test")
    assert not report.ok
    assert [e[:3] for e in report.errors] == [("igrid", "spf_opt", None)]
    assert "ValueError" in report.errors[0][3]
    assert [c.variant for c in report.cells] == ["pvme", "pvme"]


def test_mp_barrier_reserves_round_tags():
    """Barrier rounds draw their tags from next_tag, so a collective
    issued right after the barrier can never collide with a straggler's
    final barrier round (the old `tag + round_no` scheme reused tag
    space that next_tag would hand out again)."""
    from repro.msg.collectives import bcast_gen, mp_barrier_gen

    def prog(env):
        comm = Comm(env)
        before = comm._seq
        yield from mp_barrier_gen(comm)
        rounds = comm._seq - before          # one fresh tag per round
        value = yield from bcast_gen(comm, env.pid, root=0)
        return rounds, value

    r = Cluster(nprocs=4).run(prog)
    assert all(res == (2, 0) for res in r.results)    # ceil(log2 4) = 2

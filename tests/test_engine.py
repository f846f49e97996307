"""Unit tests for the discrete-event engine (repro.sim.engine)."""

import threading
import time
import warnings

import numpy as np
import pytest

from repro.compiler.spf import SpfOptions, compile_spf
from repro.compiler.xhpf import compile_xhpf
from repro.msg.pvme import Pvme
from repro.sim.cluster import Cluster
from repro.sim.engine import HOLD, PARK, Deadlock, SimError, Simulator
from repro.sim.faults import FaultPlan
from repro.tmk.api import tmk_run

from .conftest import irregular_program, stencil_program


def simproc_threads():
    return [t.name for t in threading.enumerate()
            if t.name.startswith("simproc-")]


def run_bounded(sim, timeout=10.0):
    """``sim.run()`` on a helper thread: a lost baton fails the test instead
    of hanging the suite."""
    box = {}

    def target():
        try:
            box["value"] = sim.run()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box["exc"] = exc

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), "simulation hung: the baton was lost"
    if "exc" in box:
        raise box["exc"]
    return box["value"]


def test_single_process_runs_to_completion():
    sim = Simulator()
    out = []
    sim.add_process("p", lambda: out.append("ran"))
    sim.run()
    assert out == ["ran"]


def test_hold_advances_virtual_time():
    sim = Simulator()
    times = []

    def prog():
        proc = sim.current
        times.append(sim.now)
        proc.hold(1.5)
        times.append(sim.now)
        proc.hold(0.25)
        times.append(sim.now)

    sim.add_process("p", prog)
    end = sim.run()
    assert times == [0.0, 1.5, 1.75]
    assert end == 1.75


def test_zero_hold_is_allowed():
    sim = Simulator()

    def prog():
        sim.current.hold(0.0)

    sim.add_process("p", prog)
    assert sim.run() == 0.0


def test_negative_hold_rejected():
    sim = Simulator()

    def prog():
        sim.current.hold(-1.0)

    sim.add_process("p", prog)
    with pytest.raises(SimError):
        sim.run()


def test_processes_interleave_by_time():
    sim = Simulator()
    order = []

    def prog(name, dt):
        proc = sim.current
        proc.hold(dt)
        order.append((name, sim.now))

    sim.add_process("a", prog, "a", 2.0)
    sim.add_process("b", prog, "b", 1.0)
    sim.add_process("c", prog, "c", 3.0)
    sim.run()
    assert order == [("b", 1.0), ("a", 2.0), ("c", 3.0)]


def test_same_time_tiebreak_is_fifo_by_schedule_order():
    sim = Simulator()
    order = []

    def prog(name):
        sim.current.hold(1.0)
        order.append(name)

    for name in "abcd":
        sim.add_process(name, prog, name)
    sim.run()
    assert order == list("abcd")


def test_determinism_across_runs():
    def build():
        sim = Simulator()
        log = []

        def prog(name, dts):
            proc = sim.current
            for dt in dts:
                proc.hold(dt)
                log.append((name, sim.now))

        sim.add_process("x", prog, "x", [0.5, 0.5, 1.0])
        sim.add_process("y", prog, "y", [0.7, 0.3, 1.0])
        sim.run()
        return log

    assert build() == build()


def test_park_unpark():
    sim = Simulator()
    log = []

    def sleeper():
        proc = sim.current
        log.append("parking")
        proc.park()
        log.append(("woken", sim.now))

    def waker(target):
        proc = sim.current
        proc.hold(2.0)
        sim.unpark(target[0], delay=0.5)

    target = []
    p = sim.add_process("sleeper", sleeper)
    target.append(p)
    sim.add_process("waker", waker, target)
    sim.run()
    assert log == ["parking", ("woken", 2.5)]


def test_unpark_of_running_process_raises():
    sim = Simulator()

    def prog(holder):
        with pytest.raises(SimError):
            sim.unpark(sim.current)

    sim.add_process("p", prog, None)
    sim.run()


def test_deadlock_detected():
    sim = Simulator()
    sim.add_process("stuck", lambda: sim.current.park())
    with pytest.raises(Deadlock):
        sim.run()


def test_daemon_does_not_block_completion():
    sim = Simulator()

    def daemon():
        sim.current.park()   # parks forever

    def main():
        sim.current.hold(1.0)

    sim.add_process("d", daemon, daemon=True)
    sim.add_process("m", main)
    assert sim.run() == 1.0


def test_exception_in_process_propagates():
    sim = Simulator()

    def bad():
        raise ValueError("boom")

    sim.add_process("bad", bad)
    with pytest.raises(SimError, match="boom"):
        sim.run()


def test_exception_reports_process_name():
    sim = Simulator()

    def bad():
        sim.current.hold(1.0)
        raise RuntimeError("later failure")

    sim.add_process("worker-7", bad)
    with pytest.raises(SimError, match="worker-7"):
        sim.run()


def test_schedule_call_runs_inline_on_the_blocking_thread():
    sim = Simulator()
    hits = []

    def callback():
        with pytest.raises(SimError):    # no process context in a callback
            _ = sim.current
        hits.append((sim.now, threading.current_thread().name))

    def prog():
        sim.schedule_call(3.0, callback)
        sim.current.hold(5.0)

    sim.add_process("p", prog)
    sim.run()
    assert hits == [(3.0, "simproc-p")]


def test_process_results_captured():
    sim = Simulator()

    def prog(v):
        sim.current.hold(1.0)
        return v * 2

    procs = [sim.add_process(f"p{i}", prog, i) for i in range(4)]
    sim.run()
    assert [p.result for p in procs] == [0, 2, 4, 6]
    assert all(p.finished for p in procs)
    assert all(p.finish_time == 1.0 for p in procs)


def test_dynamic_process_spawn_mid_run():
    sim = Simulator()
    log = []

    def child():
        sim.current.hold(0.5)
        log.append(("child", sim.now))

    def parent():
        sim.current.hold(1.0)
        sim.add_process("child", child)
        sim.current.hold(1.0)
        log.append(("parent", sim.now))

    sim.add_process("parent", parent)
    sim.run()
    assert log == [("child", 1.5), ("parent", 2.0)]


def test_current_outside_process_context_raises():
    sim = Simulator()
    with pytest.raises(SimError):
        _ = sim.current


# ---------------------------------------------------------------------- #
# the handoff contract: the thread giving up the CPU pops the next event

def test_self_wakeup_needs_no_other_thread_and_counts_as_an_event():
    """A process whose own wakeup is next carries on: nothing else runs in
    between (the callbacks before it run on its thread), and each
    pushed-then-popped wakeup is one event."""
    sim = Simulator()
    ran_on = []

    def prog():
        proc = sim.current
        me = threading.get_ident()
        for _ in range(5):
            sim.schedule_call(0.5, lambda: ran_on.append(threading.get_ident()))
            proc.hold(1.0)
            assert sim.current is proc
        return me

    proc = sim.add_process("p", prog)
    assert run_bounded(sim) == 5.0
    assert ran_on == [proc.result] * 5
    assert sim.events == 11     # first wakeup + 5 callbacks + 5 self-wakeups


def test_events_and_virtual_fingerprint_pinned_to_parent_literals():
    """`jacobi tmk n=3 test` as the hold-eliding engine before this one
    reported it: self-wakeups are ordinary loop iterations now, and
    `events` did not move."""
    from repro.api import RunRequest, execute
    r = execute(RunRequest("jacobi", "tmk", nprocs=3, preset="test",
                           seq_time=1.0))
    assert r.events == 413
    assert (r.time, r.messages, r.kilobytes) == (
        0.013917312000000032, 48, 4.265625)
    assert r.signature == {"sig_u": 431.3125, "sig_scratch": 179.3125}


def test_finishing_processes_pass_the_baton_and_leave_no_thread():
    sim = Simulator()

    def prog(i):
        sim.current.hold(1.0 + i)
        return i

    procs = [sim.add_process(f"p{i}", prog, i) for i in range(6)]
    assert run_bounded(sim) == 6.0
    assert [p.finish_time for p in procs] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    assert [p.result for p in procs] == list(range(6))
    assert simproc_threads() == []


def test_callback_exception_on_a_process_thread_reaches_run_as_itself():
    sim = Simulator()
    where = []

    def boom():
        where.append(threading.current_thread().name)
        raise ValueError("from the timer")

    def prog():
        sim.schedule_call(1.0, boom)
        sim.current.hold(2.0)

    sim.add_process("p", prog)
    sim.add_process("q", lambda: sim.current.park("forever"))
    with pytest.raises(ValueError, match="from the timer"):
        run_bounded(sim)
    assert where == ["simproc-q"]      # q blocked last, so q drove the loop
    assert simproc_threads() == []


def test_reliable_delivery_give_up_is_a_simerror_from_a_process_thread():
    from repro.sim import FaultRates
    plan = FaultPlan(rates=FaultRates(drop=1.0))

    def prog(env):
        if env.pid == 0:
            env.net.send(env.proc, 0, 1, "x", nbytes=8)
            # cpu0's thread pops the give-up timer: 12 transmissions with
            # a 600 us slack doubling each time end after about 2.5 s
            env.proc.hold(10.0)
        else:
            env.net.recv(env.proc, 1, src=0)

    with pytest.raises(SimError, match="gave up"):
        Cluster(nprocs=2, faults=plan).run(prog)
    assert simproc_threads() == []


def test_deadlock_found_by_the_last_parking_process_names_every_site():

    def prog(env):
        env.proc.hold(1e-3 * (env.pid + 1))
        env.net.recv(env.proc, env.pid, src=(env.pid + 1) % env.nprocs, tag=7)

    with pytest.raises(Deadlock) as exc:
        Cluster(nprocs=3).run(prog)
    assert str(exc.value) == (
        "no events remain but 3 process(es) still blocked: "
        "cpu0 parked at ('recv', 0, 1, 7); cpu1 parked at ('recv', 1, 2, 7); "
        "cpu2 parked at ('recv', 2, 0, 7)\n"
        "network state at deadlock:\n"
        "  node 0: mailbox=[]\n    cpu0 waiting on recv(src=1, tag=7)\n"
        "  node 1: mailbox=[]\n    cpu1 waiting on recv(src=2, tag=7)\n"
        "  node 2: mailbox=[]\n    cpu2 waiting on recv(src=0, tag=7)")
    assert simproc_threads() == []


def test_seeded_pop_order_of_same_time_processes_is_pinned():
    """Literal recorded with the engine before this one: the jitter draws,
    one per push, are untouched."""
    sim = Simulator(schedule_seed=7)
    order = []

    def prog(name):
        sim.current.hold(1.0)
        order.append(name)
        sim.current.hold(0.0)
        order.append(name.upper())

    for name in "abcdef":
        sim.add_process(name, prog, name)
    run_bounded(sim)
    assert order == ["a", "d", "e", "c", "E", "C", "A", "f", "b", "F", "D", "B"]
    assert sim.events == 18


# ---------------------------------------------------------------------- #
# teardown

def test_process_never_given_a_slice_does_not_start_in_a_dead_simulator():
    """Every non-daemon finishes before the daemon's first wakeup is popped:
    teardown must not let its program run (it would park forever and cost
    run() a 5 s join)."""
    sim = Simulator()
    started = []

    def daemon():
        started.append(True)
        sim.current.park("never woken")

    sim.add_process("m", lambda: None)
    sim.add_process("d", daemon, daemon=True)
    t0 = time.perf_counter()
    run_bounded(sim)
    assert time.perf_counter() - t0 < 1.0
    assert started == []
    assert simproc_threads() == []


def test_trivial_tmk_run_is_fast_and_leaves_no_server_thread(monkeypatch):
    """An n-processor ``tmk_run`` starts exactly n ``simproc-`` threads: the
    n request servers are generator processes and own none (was 2n)."""
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    t0 = time.perf_counter()
    result = tmk_run(4, lambda tmk: tmk.pid, lambda world: None)
    assert time.perf_counter() - t0 < 0.5
    assert result.results == [0, 1, 2, 3]
    assert [n for n in started if n.startswith("simproc-")] == [
        "simproc-cpu0", "simproc-cpu1", "simproc-cpu2", "simproc-cpu3"]
    assert simproc_threads() == []


def test_thread_surviving_teardown_is_reported(monkeypatch):
    sim = Simulator()
    gate = threading.Event()

    def stubborn():
        try:
            sim.current.park("site-42")
        finally:
            gate.wait()     # blocks outside the simulator while unwinding

    sim.add_process("m", lambda: sim.current.hold(1.0))
    proc = sim.add_process("d", stubborn, daemon=True)
    monkeypatch.setattr(proc._thread, "join", lambda timeout=None: None)
    try:
        with pytest.warns(ResourceWarning, match="simproc-d.*site-42"):
            sim.run()
    finally:
        gate.set()
        threading.Thread.join(proc._thread, 5.0)
    assert not proc._thread.is_alive()


def test_finished_simulator_refuses_a_second_run():
    """A second ``run()`` used to let the private ``_Killed`` (a
    ``BaseException``) escape to the caller."""
    sim = Simulator()
    proc = sim.add_process("p", lambda: sim.current.hold(1.0) or "done")
    assert sim.run() == 1.0
    with pytest.raises(SimError, match="single-use"):
        run_bounded(sim)
    # what callers read after a run is still there
    assert (sim.now, sim.events, sim.switches) == (1.0, 2, 1)
    assert (proc.name, proc.finished, proc.finish_time, proc.result) == (
        "p", True, 1.0, "done")


def test_finished_simulator_refuses_add_process_and_starts_no_thread():
    """``add_process`` after the run used to start a ``simproc-`` thread that
    blocked on its baton forever."""
    sim = Simulator()
    sim.add_process("a", lambda: None)
    sim.run()
    with pytest.raises(SimError, match="single-use"):
        sim.add_process("b", lambda: None)
    with pytest.raises(SimError, match="single-use"):
        sim.add_process("g", lambda: (yield HOLD, 1.0), daemon=True)
    assert simproc_threads() == []


# ---------------------------------------------------------------------- #
# generator processes: stepped inline by whichever thread pops their wakeup

def test_generator_process_is_stepped_inline_and_owns_no_thread():
    """A server-style daemon written as a generator runs on the thread of
    the process that wakes it; the only switches are thread <-> thread."""
    sim = Simulator()
    ran_on = []

    def server():
        while True:
            yield PARK, "idle"
            ran_on.append((sim.now, threading.current_thread().name,
                           sim.current.name))
            yield HOLD, 0.25
            ran_on.append((sim.now, threading.current_thread().name,
                           sim.current.name))

    def client():
        me = sim.current
        for _ in range(2):
            me.hold(1.0)
            sim.unpark(srv)
            me.hold(1.0)
        return "done"

    srv = sim.add_process("srv", server, daemon=True)
    cli = sim.add_process("cli", client)
    assert srv._thread is None
    assert run_bounded(sim) == 4.0
    assert cli.result == "done"
    assert ran_on == [(1.0, "simproc-cli", "srv"), (1.25, "simproc-cli", "srv"),
                      (3.0, "simproc-cli", "srv"), (3.25, "simproc-cli", "srv")]
    assert sim.switches == 1            # run() -> cli, and nothing else
    assert srv.finished and srv.finish_time == 4.0      # closed by teardown
    assert simproc_threads() == []


def _pingpong(sim, kind, log):
    """The same program -- ping-pong over park/unpark with delays, same-time
    tickers, timer callbacks, a mid-run spawn, return values -- as thread
    bodies (``kind="thread"``), as generator bodies (``"generator"``), or as
    the generator bodies driven by thread processes (``"driven"``)."""
    procs = {}

    def add(name, thread_body, gen_body, *args):
        if kind == "thread":
            body = thread_body
        elif kind == "generator":
            body = gen_body
        else:
            def body(*a):
                return sim.current.drive(gen_body(*a))
        procs[name] = sim.add_process(name, body, *args)

    def note(*what):
        log.append((sim.current.name, sim.now) + what)

    def ping_t():
        me = sim.current
        for i in range(4):
            me.hold(1.0)
            note("serve", i)
            sim.unpark(procs["pong"])
            me.park("ping-wait")
        return "ping-done"

    def ping_g():
        for i in range(4):
            yield HOLD, 1.0
            note("serve", i)
            sim.unpark(procs["pong"])
            yield PARK, "ping-wait"
        return "ping-done"

    def pong_t():
        me = sim.current
        for i in range(4):
            me.park("pong-wait")
            note("return", i)
            sim.schedule_call(0.125, lambda: log.append(("timer", sim.now)))
            me.hold(0.5)
            if i == 1:
                add("child", child_t, child_g, 3)
            sim.unpark(procs["ping"], delay=0.25)
        return "pong-done"

    def pong_g():
        for i in range(4):
            yield PARK, "pong-wait"
            note("return", i)
            sim.schedule_call(0.125, lambda: log.append(("timer", sim.now)))
            yield HOLD, 0.5
            if i == 1:
                add("child", child_t, child_g, 3)
            sim.unpark(procs["ping"], delay=0.25)
        return "pong-done"

    def child_t(n):
        for i in range(n):
            sim.current.hold(0.0)
            note("child", i)
        return n

    def child_g(n):
        for i in range(n):
            yield HOLD, 0.0
            note("child", i)
        return n

    def ticker_t(n):
        for i in range(n):
            sim.current.hold(0.5)
            note("tick", i)

    def ticker_g(n):
        for i in range(n):
            yield HOLD, 0.5
            note("tick", i)

    add("ping", ping_t, ping_g)
    add("pong", pong_t, pong_g)
    for name in "abc":
        add(name, ticker_t, ticker_g, 6)
    return procs


@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3, 4])
def test_thread_and_generator_bodies_are_the_same_simulation(seed):
    """Same heap pushes in the same order with the same jitter draws: the
    kind of body changes which OS thread runs the code, nothing else."""
    runs = {}
    for kind in ("thread", "generator", "driven"):
        sim = Simulator(schedule_seed=seed)
        log = []
        procs = _pingpong(sim, kind, log)
        end = run_bounded(sim)
        runs[kind] = (end, sim.events, log,
                      {n: (p.result, p.finish_time) for n, p in procs.items()})
        if kind == "generator":
            assert sim.switches == 0    # everything ran on run()'s thread
        else:
            assert sim.switches > 20
    assert runs["thread"][0] == 7.0
    assert runs["thread"][3]["child"] == (3, 3.25)
    assert runs["generator"] == runs["thread"]
    assert runs["driven"] == runs["thread"]
    if seed is not None:
        sim = Simulator()
        fifo = []
        _pingpong(sim, "generator", fifo)
        sim.run()
        assert fifo != runs["generator"][2]     # the seed did reorder ties
        assert sorted(fifo) == sorted(runs["generator"][2])


# ---------------------------------------------------------------------- #
# the same executable as generator processes and under thread mains

def _fingerprint(result):
    # a sim-level Cluster result has no document, so no canonical bytes
    return (result.time, result.proc_times, result.events,
            result.stats.messages, result.stats.kilobytes,
            result.stats.retransmissions, result.results[0])


def _driven(run_on):
    """A thread main that exhausts the generator program with ``drive``."""
    def main(handle):
        return handle.proc.drive(run_on(handle))
    return main


RUN_OPTIONS = {"fifo": {}, "seed1": {"schedule_seed": 1},
               "seed2": {"schedule_seed": 2},
               "faults": {"faults": FaultPlan.default()}}


@pytest.mark.parametrize("option", RUN_OPTIONS)
@pytest.mark.parametrize("program", [stencil_program, irregular_program])
@pytest.mark.parametrize("spf_options", [
    SpfOptions(), SpfOptions(improved_interface=False),
    SpfOptions(aggregate=True, fuse_loops=True, tree_reductions=True,
               push_halos=True)], ids=["spf", "old", "opt"])
def test_spf_program_is_the_same_simulation_under_both_kinds(
        program, spf_options, option):
    exe = compile_spf(program(), 4, spf_options)
    cooperative = tmk_run(4, exe.run_on, exe.setup_space,
                          **RUN_OPTIONS[option])
    threaded = tmk_run(4, _driven(exe.run_on), exe.setup_space,
                       **RUN_OPTIONS[option])
    assert cooperative.switches == 0 < threaded.switches
    assert _fingerprint(cooperative) == _fingerprint(threaded)
    assert cooperative.dsm_stats == threaded.dsm_stats


@pytest.mark.parametrize("option", RUN_OPTIONS)
@pytest.mark.parametrize("program", [stencil_program, irregular_program])
@pytest.mark.parametrize("inspector", [False, True], ids=["xhpf", "ie"])
def test_xhpf_program_is_the_same_simulation_under_both_kinds(
        program, inspector, option):
    exe = compile_xhpf(program(), 4, inspector_executor=inspector)
    cooperative = Cluster(nprocs=4, **RUN_OPTIONS[option]).run(exe.run_on)
    threaded = Cluster(nprocs=4, **RUN_OPTIONS[option]).run(
        _driven(exe.run_on))
    assert cooperative.switches == 0 < threaded.switches
    assert _fingerprint(cooperative) == _fingerprint(threaded)


# ---------------------------------------------------------------------- #
# the thread surface that stays: a plain-function program is the same
# simulation as its generator form (the frozen benchmark kernels and user
# programs written against the blocking names rely on it)

def _simulate(form):
    sim = Simulator()

    def plain(k):
        for i in range(40):
            sim.current.hold(1e-6 * ((i + k) % 3))
        return sim.now

    def generator(k):
        for i in range(40):
            yield HOLD, 1e-6 * ((i + k) % 3)
        return sim.now

    body = plain if form == "plain" else generator
    procs = [sim.add_process(f"p{k}", body, k) for k in range(3)]
    sim.run()
    return (sim.now, sim.events, None, None, [p.result for p in procs],
            sim.switches)


def _mp_plain(env):
    p = Pvme(env)
    right, left = (p.tid + 1) % p.ntasks, (p.tid - 1) % p.ntasks
    got = None
    for i in range(4):
        p.send(right, np.full(64, float(p.tid + i)), tag=i)
        got = p.recv(src=left, tag=i)
        env.proc.hold(1e-5 * (p.tid + 1))
    env.net.send(env.proc, env.pid, right, float(got.sum()), tag=9, nbytes=8)
    ring = env.net.recv(env.proc, env.pid, src=left, tag=9).payload
    return p.bcast(ring if p.tid == 0 else None, root=0)


def _mp_generator(env):
    p = Pvme(env)
    right, left = (p.tid + 1) % p.ntasks, (p.tid - 1) % p.ntasks
    got = None
    for i in range(4):
        yield from p.send_gen(right, np.full(64, float(p.tid + i)), tag=i)
        got = yield from p.recv_gen(src=left, tag=i)
        yield HOLD, 1e-5 * (p.tid + 1)
    yield from env.net.send_gen(env.pid, right, float(got.sum()), tag=9,
                                nbytes=8)
    ring = (yield from env.net.recv_gen(env.proc, env.pid, src=left,
                                        tag=9)).payload
    return (yield from p.bcast_gen(ring if p.tid == 0 else None, root=0))


def _dsm_setup(space):
    space.alloc("grid", (8, 1024), np.float32)


def _dsm_plain(tmk):
    grid = tmk.array("grid")
    lo, hi = tmk.block_range(8)
    for it in range(3):
        grid.write((slice(lo, hi),), float(tmk.pid + it))
        tmk.lock_acquire(0)
        tmk.lock_release(0)
        tmk.barrier()
        total = float(grid.read().sum())
        tmk.barrier()
    return total


def _dsm_generator(tmk):
    grid = tmk.array("grid")
    lo, hi = tmk.block_range(8)
    for it in range(3):
        yield from grid.write_gen((slice(lo, hi),), float(tmk.pid + it))
        steps = tmk.lock_acquire_steps(0)
        if steps is not None:
            yield from steps
        steps = tmk.lock_release_steps(0)
        if steps is not None:
            yield from steps
        yield from tmk.barrier_gen()
        total = float((yield from grid.read_gen()).sum())
        yield from tmk.barrier_gen()
    return total


def _run(result):
    return (result.time, result.events, result.messages, result.kilobytes,
            result.results, result.switches)


LAYERS = {
    "Simulator": _simulate,
    "Cluster.run+Pvme": lambda form: _run(Cluster(nprocs=4).run(
        {"plain": _mp_plain, "generator": _mp_generator}[form])),
    "tmk_run": lambda form: _run(tmk_run(
        4, {"plain": _dsm_plain, "generator": _dsm_generator}[form],
        _dsm_setup)),
}


@pytest.mark.parametrize("layer", LAYERS)
def test_a_plain_function_program_is_the_same_simulation(layer):
    *plain, plain_switches = LAYERS[layer]("plain")
    *generator, generator_switches = LAYERS[layer]("generator")
    assert plain == generator       # time, events, messages, KB, results
    assert generator_switches == 0 < plain_switches


def test_exception_in_generator_process_names_it_with_its_traceback():
    sim = Simulator()

    def bad():
        yield HOLD, 1.0
        raise ValueError("boom in a step")

    sim.add_process("gen-7", bad)
    sim.add_process("bystander", lambda: sim.current.hold(5.0))
    with pytest.raises(SimError) as exc:
        run_bounded(sim)
    text = str(exc.value)
    assert "process 'gen-7' raised" in text
    assert "Traceback" in text and "boom in a step" in text
    assert 'raise ValueError("boom in a step")' in text      # its own frame
    assert sim.now == 1.0
    assert simproc_threads() == []


def test_generator_never_stepped_runs_nothing_in_a_dead_simulator():
    sim = Simulator()
    trail = []

    def daemon():
        trail.append("started")
        try:
            yield PARK, "never woken"
        finally:
            trail.append("finally")

    sim.add_process("m", lambda: None)
    d = sim.add_process("d", daemon, daemon=True)
    run_bounded(sim)
    assert trail == []
    assert d.finished


def test_parked_daemon_generator_is_no_deadlock_and_is_closed_at_teardown():
    sim = Simulator()
    trail = []

    def daemon():
        try:
            while True:
                yield PARK, "idle"
        finally:
            trail.append(("closed", sim.now))

    d = sim.add_process("d", daemon, daemon=True)
    sim.add_process("m", lambda: sim.current.hold(2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_bounded(sim) == 2.0
    assert trail == [("closed", 2.0)]
    assert d.finished and d.finish_time == 2.0


def test_generator_that_yields_while_closing_is_reported_not_raised():
    sim = Simulator()

    def stubborn():
        try:
            yield PARK, "idle"
        finally:
            yield HOLD, 1.0     # ignores GeneratorExit

    sim.add_process("d", stubborn, daemon=True)
    sim.add_process("m", lambda: sim.current.hold(1.0))
    with pytest.warns(ResourceWarning, match="'d' did not close cleanly"):
        assert sim.run() == 1.0


def test_bad_block_requests_are_rejected_at_the_yield():
    for bad in ((HOLD, -1.0), (HOLD, float("nan")), ("sleep", 1.0), None, 1.0,
                (PARK,)):
        sim = Simulator()

        def prog():
            yield bad

        sim.add_process("p", prog)
        with pytest.raises(SimError, match="ValueError: bad block request"):
            run_bounded(sim)

    # ... as a ValueError the body may handle, like a blocking hold(-1)
    sim = Simulator()

    def forgiving():
        try:
            yield HOLD, -1.0
        except ValueError:
            yield HOLD, 2.0
        return "recovered"

    p = sim.add_process("p", forgiving)
    assert run_bounded(sim) == 2.0
    assert p.result == "recovered"


def test_blocking_primitive_called_from_a_generator_process_raises():

    for call in (lambda me: me.hold(1.0), lambda me: me.park("x")):
        sim = Simulator()

        def prog():
            call(sim.current)
            yield HOLD, 1.0

        sim.add_process("srv", prog)
        with pytest.raises(SimError, match="'srv' called the blocking"):
            run_bounded(sim)

    def main(env):
        def server():
            env.net.send(srv, env.pid, 0, "x", nbytes=8)    # blocking form
            yield HOLD, 1.0

        srv = env.spawn_server("srv", server)
        env.proc.hold(1.0)

    with pytest.raises(SimError, match="'srv@0' called the blocking hold"):
        Cluster(nprocs=1).run(main)


def test_plain_callable_returning_a_generator_object_fails_the_run():
    """`lambda: gen_fn(3)` used to "finish" at time 0.0 with the unstarted
    generator as its result -- a silent wrong run.  What `inspect` can see
    through (a `partial`, a bound method) is a generator process."""
    import functools
    trail = []

    def gen_fn(n):
        yield HOLD, float(n)
        trail.append(n)
        return n

    class Owner:
        def body(self, n):
            return (yield from gen_fn(n))

    sim = Simulator()
    sim.add_process("wrapped", lambda: gen_fn(3))
    with pytest.raises(SimError, match="thread process 'wrapped'.*returned a "
                                       "generator object.*pass the generator "
                                       "function itself"):
        run_bounded(sim)
    assert trail == [] and simproc_threads() == []

    sim = Simulator()
    procs = [sim.add_process("partial", functools.partial(gen_fn, 3)),
             sim.add_process("method", Owner().body, 4)]
    assert all(p._thread is None for p in procs)
    assert run_bounded(sim) == 4.0
    assert [p.result for p in procs] == [3, 4] and trail == [3, 4]
    assert sim.switches == 0


def _as_kind(sim, kind, gen_fn):
    """``gen_fn`` as a generator process, or driven by a thread process."""
    if kind == "generator":
        return gen_fn
    return lambda: sim.current.drive(gen_fn())


@pytest.mark.parametrize("kind", ["generator", "driven"])
def test_malformed_requests_and_teardown_treat_both_kinds_alike(kind):
    """A bad request is a ValueError thrown into the shared generator at the
    offending yield -- it may handle it, and its own frame is in the
    traceback -- and teardown runs its `finally` blocks, under a generator
    process and under a thread process that drives it."""
    sim = Simulator()
    trail = []

    def forgiving():
        try:
            yield HOLD, -1.0
        except ValueError as exc:
            trail.append(str(exc))
            yield HOLD, 2.0
        return "recovered"

    def idle_forever():
        try:
            yield PARK, "idle"
        finally:
            trail.append(("closed", sim.now))

    p = sim.add_process("p", _as_kind(sim, kind, forgiving))
    sim.add_process("d", _as_kind(sim, kind, idle_forever), daemon=True)
    assert run_bounded(sim) == 2.0
    assert p.result == "recovered"
    assert trail == ["bad block request ('hold', -1.0): expected (HOLD, dt "
                     ">= 0) or (PARK, token)", ("closed", 2.0)]
    assert simproc_threads() == []

    sim = Simulator()

    def napping():
        yield "nap", 1

    sim.add_process("p", _as_kind(sim, kind, napping))
    with pytest.raises(SimError) as exc:
        run_bounded(sim)
    text = str(exc.value)
    assert "process 'p' raised" in text
    assert "ValueError: bad block request ('nap', 1)" in text
    assert 'yield "nap", 1' in text             # the generator's own frame


def test_current_is_the_stepped_process_and_generators_spawn_mid_run():
    sim = Simulator()
    seen = []

    def child(tag):
        seen.append((tag, sim.current.name, sim.now))
        yield HOLD, 0.5
        seen.append((tag, sim.current.name, sim.now))
        return tag

    def parent():
        me = sim.current
        assert me is procs[0]
        yield HOLD, 1.0
        assert sim.current is me
        procs.append(sim.add_process("kid", child, "k"))
        yield HOLD, 1.0
        assert sim.current is me

    def thread_parent():
        sim.current.hold(3.0)
        procs.append(sim.add_process("late-kid", child, "l"))

    procs = [sim.add_process("parent", parent)]
    sim.add_process("tparent", thread_parent)
    assert run_bounded(sim) == 3.5
    assert seen == [("k", "kid", 1.0), ("k", "kid", 1.5),
                    ("l", "late-kid", 3.0), ("l", "late-kid", 3.5)]
    assert [p.result for p in procs[1:]] == ["k", "l"]


def test_deadlock_and_leak_reports_locate_a_generator_process():
    """`_site()` names the path down a generator process's `yield from`
    chain to the innermost suspended frame, parked or held -- no more "no
    park site"."""
    sim = Simulator()
    sites = []

    def inner():
        yield PARK, ("waiting-on", 42)

    def outer():
        yield from inner()

    def holder():
        yield HOLD, 10.0

    def probe():
        sim.current.hold(1.0)
        sites.append(held._site())

    sim.add_process("stuck", outer)
    held = sim.add_process("held", holder, daemon=True)
    sim.add_process("probe", probe)
    with pytest.raises(Deadlock) as exc:
        run_bounded(sim)
    assert (f"stuck parked at ('waiting-on', 42) in outer > inner "
            f"(test_engine.py:"
            f"{inner.__code__.co_firstlineno + 1})") in str(exc.value)
    assert sites == [f"held blocked in holder (test_engine.py:"
                     f"{holder.__code__.co_firstlineno + 1})"]


def test_network_deadlock_report_lists_a_generator_server_waiter():

    def prog(env):
        def server():
            yield from env.net.recv_gen(srv, env.pid, tag=99)

        srv = env.spawn_server("srv", server)
        env.net.recv(env.proc, env.pid, src=0, tag=7)

    with pytest.raises(Deadlock) as exc:
        Cluster(nprocs=1).run(prog)
    text = str(exc.value)
    assert "cpu0 parked at ('recv', 0, 0, 7)" in text
    assert "    srv@0 waiting on recv(src=ANY, tag=99)" in text
    assert "    cpu0 waiting on recv(src=0, tag=7)" in text


def test_unknown_dsm_request_names_the_node_and_the_payload_type():
    from repro.tmk.protocol import TAG_TMK_REQ

    def prog(tmk):
        if tmk.pid == 0:
            tmk.env.net.send(tmk.env.proc, 0, 1, {"not": "a request"},
                             tag=TAG_TMK_REQ, nbytes=8)
        tmk.barrier()

    with pytest.raises(SimError, match="node 1: unknown DSM request payload "
                                       "dict"):
        tmk_run(2, prog, lambda space: None)


# ---------------------------------------------------------------------- #
# what the servers-as-generators change did and did not move

def _cluster_results(monkeypatch):
    """Collect every ``sim.cluster.RunResult`` produced under ``api.execute``
    (``switches`` is deliberately not on ``api.RunResult``)."""
    seen = []
    real_run = Cluster.run

    def run(self, *args, **kwargs):
        seen.append(real_run(self, *args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(Cluster, "run", run)
    return seen


#: a third column for the sim_sync table below: `switches` once compiled
#: programs are generator processes too (stage 2a).  The hand-coded key
#: still owned a thread per processor and did not move.
STAGE_2A_SWITCHES = {("jacobi", "spf"): 0, ("jacobi", "tmk"): 581,
                     ("igrid", "spf"): 0, ("nbf", "spf"): 0}

#: a fourth column: `switches` once the hand-coded programs are generator
#: processes as well (stage 2b).  No key owns a thread any more.
STAGE_2B_SWITCHES = {("jacobi", "spf"): 0, ("jacobi", "tmk"): 0,
                     ("igrid", "spf"): 0, ("nbf", "spf"): 0}


@pytest.mark.parametrize("app, variant, events, parent_switches, switches", [
    ("jacobi", "spf", 2833, 1895, 1007),
    ("jacobi", "tmk", 1422, 1005, 581),
    ("igrid", "spf", 3856, 2663, 1167),
    ("nbf", "spf", 10611, 7318, 3358),
])
def test_switches_pinned_for_the_sim_sync_keys(monkeypatch, app, variant,
                                               events, parent_switches,
                                               switches):
    """The four `sim_sync` keys (`test`, n=8).  `parent_switches` was counted
    before PR 16, where every request server was an OS thread, with the same
    one-line counter; `switches` after it (servers are generator processes);
    `STAGE_2A_SWITCHES` after the compiled programs became generator
    processes; `STAGE_2B_SWITCHES` now.  `events` is the same on all four."""
    from repro.api import RunRequest, execute
    seen = _cluster_results(monkeypatch)
    r = execute(RunRequest(app, variant, nprocs=8, preset="test",
                           seq_time=1.0))
    assert r.events == seen[-1].events == events
    assert not hasattr(r, "switches")
    assert switches <= 0.6 * parent_switches        # PR 16: down >= 40 %
    assert seen[-1].switches == STAGE_2B_SWITCHES[app, variant]


def test_message_passing_run_has_no_server_and_switches_as_before(monkeypatch):
    """`igrid-xhpf`: no DSM and no server, so PR 16 saved nothing here (193
    switches of 311 events, as before it); since stage 2a its four programs
    are generator processes and nothing is left to switch to."""
    from repro.api import RunRequest, execute
    seen = _cluster_results(monkeypatch)
    r = execute(RunRequest("igrid", "xhpf", nprocs=4, preset="test",
                           seq_time=1.0))
    assert (r.events, seen[-1].switches) == (311, 0)


PARENT_PINS = {
    # (app, variant, schedule_seed): (time, events, total messages, total KB)
    ("jacobi", "tmk", None): (0.016073216000000085, 1422, 272, 34.5703125),
    ("jacobi", "tmk", 1): (0.016073216000000085, 1425, 272, 34.5703125),
    ("jacobi", "tmk", 2): (0.016073216000000085, 1426, 272, 34.5703125),
    ("nbf", "spf", None): (0.12010002000000175, 10611, 2247, 423.6015625),
    ("nbf", "spf", 1): (0.12010002000000175, 10704, 2247, 423.6015625),
    ("nbf", "spf", 2): (0.12010002000000175, 10709, 2247, 423.6015625),
}


@pytest.mark.parametrize("key", sorted(PARENT_PINS, key=repr), ids=repr)
def test_schedule_seed_runs_pinned_to_parent_literals(key):
    """Recorded on the parent commit (thread servers), n=8 `test`: every
    fuzzed interleaving is the one it was -- same pushes, same jitter draws."""
    from repro.api import RunRequest, execute
    app, variant, seed = key
    r = execute(RunRequest(app, variant, nprocs=8, preset="test", seq_time=1.0,
                           schedule_seed=seed))
    assert (r.time, r.events, r.total_messages,
            r.total_kilobytes) == PARENT_PINS[key]


KERNEL_PINS = {
    # (app, variant): (time, messages, kilobytes, events), n=8 `test`
    ("jacobi", "spf"): (0.0202840960000001, 252, 45.28125, 2833),
    ("jacobi", "tmk"): (0.016073216000000085, 204, 27.40625, 1422),
    ("shallow", "spf_opt"): (0.14611662000000464, 1446, 1234.421875, 11521),
    ("igrid", "spf"): (0.04604727999999989, 544, 31.7734375, 3856),
    ("fft3d", "tmk"): (0.02818887999999993, 283, 459.9140625, 2340),
}


@pytest.mark.parametrize("key", list(KERNEL_PINS), ids="-".join)
def test_kernel_runs_pinned_to_recorded_literals(key):
    """Five representative kernels -- regular and irregular, compiled,
    hand-coded and hand-optimised -- keep the exact virtual metrics first
    recorded for them; `shallow-spf_opt` at this size is pinned nowhere
    else."""
    from repro.api import RunRequest, execute
    app, variant = key
    r = execute(RunRequest(app, variant, nprocs=8, preset="test",
                           seq_time=1.0))
    assert (r.time, r.messages, r.kilobytes, r.events) == KERNEL_PINS[key]


@pytest.mark.parametrize("app, variant, pinned", [
    ("jacobi", "tmk", (0.03174905474495498, 2071, 272, 34.5703125,
                       26, 298, 31)),
    ("nbf", "spf", (0.18398477622234927, 15560, 2191, 422.75,
                    234, 2370, 231)),
])
def test_fault_plan_runs_pinned_to_parent_literals(app, variant, pinned):
    """Same, under `FaultPlan.default()`: the servers' sends ride the faulty
    wire through the one `send_gen`, draw for draw (time, events, messages,
    KB, retransmissions, acks, duplicates suppressed)."""
    from repro.api import RunRequest, execute, fault_plan_to_doc
    r = execute(RunRequest(app, variant, nprocs=8, preset="test", seq_time=1.0,
                           fault_plan=fault_plan_to_doc(FaultPlan.default())))
    assert (r.time, r.events, r.total_messages, r.total_kilobytes,
            r.retransmissions, r.acks, r.dup_suppressed) == pinned

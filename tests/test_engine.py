"""Unit tests for the discrete-event engine (repro.sim.engine)."""

import threading
import time

import pytest

from repro.sim.engine import Deadlock, Process, SimError, Simulator


def simproc_threads():
    return [t.name for t in threading.enumerate()
            if t.name.startswith("simproc-")]


def run_bounded(sim, timeout=10.0, **kwargs):
    """``sim.run()`` on a helper thread: a lost baton fails the test instead
    of hanging the suite."""
    box = {}

    def target():
        try:
            box["value"] = sim.run(**kwargs)
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


def test_run_until_stops_early():
    sim = Simulator()

    def prog():
        for _ in range(10):
            sim.current.hold(1.0)

    sim.add_process("p", prog)
    end = sim.run(until=3.5)
    assert end == 3.5


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
    from repro.api import RunRequest, run
    r = run(RunRequest("jacobi", "tmk", nprocs=3, preset="test",
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
    from repro.sim import Cluster, FaultPlan, FaultRates
    plan = FaultPlan(rates=FaultRates(drop=1.0), max_attempts=3)

    def prog(env):
        if env.pid == 0:
            env.net.send(env.proc, 0, 1, "x", nbytes=8)
            env.proc.hold(10.0)      # cpu0's thread pops the give-up timer
        else:
            env.net.recv(env.proc, 1, src=0)

    with pytest.raises(SimError, match="gave up"):
        Cluster(nprocs=2, faults=plan).run(prog)
    assert simproc_threads() == []


def test_run_until_cut_off_popped_by_a_process_thread():
    sim = Simulator()
    ticks = []

    def ticker(name, dt):
        while True:
            sim.current.hold(dt)
            ticks.append((name, sim.now))

    a = sim.add_process("a", ticker, "a", 1.0)
    b = sim.add_process("b", ticker, "b", 1.5)
    assert run_bounded(sim, until=3.5) == 3.5
    assert sim.now == 3.5
    assert ticks == [("a", 1.0), ("b", 1.5), ("a", 2.0), ("b", 3.0),
                     ("a", 3.0)]
    assert a.finish_time == b.finish_time == 3.5     # unwound by teardown
    assert simproc_threads() == []


def test_deadlock_found_by_the_last_parking_process_names_every_site():
    from repro.sim import Cluster

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


def test_trivial_tmk_run_is_fast_and_leaves_no_server_thread():
    from repro.tmk.api import tmk_run
    t0 = time.perf_counter()
    result = tmk_run(4, lambda tmk: tmk.pid, lambda world: None)
    assert time.perf_counter() - t0 < 0.5
    assert result.results == [0, 1, 2, 3]
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

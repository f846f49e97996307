"""Per-layer micro-kernels: each runtime operation timed from outside.

Every kernel drives one layer through its public entry points only and
times it against the layer beneath (the DART-MPI method: a layered
runtime measured operation by operation).  They run in the traced child
after the workload rounds, never during an end-to-end measurement.

Each kernel returns ``{metric: (value, unit, n)}`` where ``n`` is the
number of operations (or repetitions) behind the value.  ``scale``
shortens the loops for ``--quick``; a repeated kernel reports the median
of its repetitions.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

from workloads import ALL_APPS, SIM_APPS, SIM_KEYS, Key

REPS = 3


def _count(n: int, scale: float) -> int:
    return max(8, int(n * scale))


def _median(fn, reps: int = REPS) -> float:
    return statistics.median(fn() for _ in range(reps))


def host_spin() -> float:
    """Fixed pure-Python + numpy loop that never touches ``repro``: the
    host's own speed, timed before and after every measurement so a run
    on a disturbed host can be told from a slower program."""
    t0 = time.perf_counter()
    x = 0
    for i in range(600_000):
        x += i * i % 7
    a = np.arange(1 << 15, dtype=np.float64)
    for _ in range(300):
        a = a * 1.0000001 + 1.0
    return time.perf_counter() - t0


# ---------------------------------------------------------------------- #
# repro.sim

def _handoff_once(events: int) -> float:
    """Seconds per event of a two-process ``hold(0)`` ping-pong: each hold
    finds the other process's wakeup queued at the same instant, so none
    is elided and every event is one conductor<->process handoff pair."""
    from repro.sim import Simulator

    sim = Simulator()

    def body():
        proc = sim.current
        for _ in range(events // 2):
            proc.hold(0.0)

    sim.add_process("a", body)
    sim.add_process("b", body)
    t0 = time.perf_counter()
    sim.run()
    return (time.perf_counter() - t0) / sim.events


def sim_engine(scale: float, all_cpus: list) -> dict:
    from repro.sim import Simulator

    events = _count(40_000, scale)
    handoff = _median(lambda: _handoff_once(events))
    # the same kernel with the OS free to move the baton threads
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, all_cpus)
    try:
        unpinned = _handoff_once(events)
    finally:
        os.sched_setaffinity(0, pinned)

    def timer_once() -> float:
        sim = Simulator()
        left = [events]

        def tick():
            left[0] -= 1
            if left[0]:
                sim.schedule_call(1e-6, tick)

        sim.add_process("sleeper", lambda: sim.current.hold(1.0))
        sim.schedule_call(1e-6, tick)   # the chain ends before the sleeper wakes
        t0 = time.perf_counter()
        sim.run()
        return (time.perf_counter() - t0) / events

    return {
        "sim.handoff_us": (handoff * 1e6, "us", events),
        "sim.unpinned_slowdown": (unpinned / handoff, "ratio", events),
        "sim.timer_us": (_median(timer_once) * 1e6, "us", events),
    }


def _ring_once(rounds: int, payload, nbytes: int, faults=None) -> float:
    """Seconds for ``rounds`` laps of an 8-processor send/recv ring."""
    from repro.sim import Cluster

    def program(env):
        nxt, prv = (env.pid + 1) % env.nprocs, (env.pid - 1) % env.nprocs
        for _ in range(rounds):
            env.net.send(env.proc, env.pid, nxt, payload, nbytes=nbytes)
            env.net.recv(env.proc, env.pid, src=prv)

    cluster = Cluster(nprocs=8, faults=faults)
    t0 = time.perf_counter()
    cluster.run(program)
    return time.perf_counter() - t0


def sim_network(scale: float) -> dict:
    from repro.sim import FaultPlan

    laps = _count(1500, scale)
    msgs = 8 * laps
    big_laps = _count(300, scale)
    block = np.zeros(64 * 1024, dtype=np.uint8)
    plain = _median(lambda: _ring_once(laps, None, 0))
    bulk = _median(lambda: _ring_once(big_laps, block, block.nbytes))
    faulted = _median(lambda: _ring_once(laps, None, 0,
                                         faults=FaultPlan.default()))
    return {
        "sim.msg_us": (plain / msgs * 1e6, "us", msgs),
        "sim.msg_mb_per_s": (8 * big_laps * block.nbytes / 1e6 / bulk,
                             "MB/s", 8 * big_laps),
        "sim.faulted_msg_us": (faulted / msgs * 1e6, "us", msgs),
    }


# ---------------------------------------------------------------------- #
# repro.tmk

def tmk_sync(scale: float) -> dict:
    from repro.tmk.api import tmk_run

    episodes = _count(300, scale)
    pairs = _count(60, scale)

    def setup(space):
        space.alloc("pad", (8,), np.float32)

    def barriers(tmk):
        for _ in range(episodes):
            tmk.barrier()

    def locks(tmk):
        for _ in range(pairs):
            tmk.lock_acquire(0)
            tmk.lock_release(0)

    def timed(program) -> float:
        t0 = time.perf_counter()
        tmk_run(8, program, setup)
        return time.perf_counter() - t0

    return {
        "tmk.barrier_us": (_median(lambda: timed(barriers)) / episodes * 1e6,
                           "us", episodes),
        "tmk.lock_us": (_median(lambda: timed(locks)) / (8 * pairs) * 1e6,
                        "us", 8 * pairs),
    }


def tmk_pages(scale: float) -> dict:
    from repro.sim.machine import PAGE_SIZE
    from repro.tmk.api import tmk_run
    from repro.tmk.diffs import apply_diff, make_diff

    pages = 32
    rounds = _count(12, scale)
    words = PAGE_SIZE // 4

    def setup(space):
        space.alloc("grid", (pages, words), np.float32)

    def program(tmk):
        grid = tmk.array("grid")
        for r in range(rounds):
            if tmk.pid == 0:             # one writer dirties every page
                grid.write((slice(None), slice(0, 8)), float(r + 1))
            tmk.barrier()
            if tmk.pid != 0:             # seven readers fault them in
                grid.read()
            tmk.barrier()

    def fetch_once() -> float:
        t0 = time.perf_counter()
        result = tmk_run(8, program, setup)
        return (time.perf_counter() - t0) / result.dsm_stats.read_faults

    faults = 7 * pages * rounds
    rng = np.random.default_rng(11)
    twin = rng.integers(0, 255, PAGE_SIZE, dtype=np.uint8)
    page = twin.copy()
    changed = rng.choice(words, size=words // 10, replace=False)
    page.view(np.uint32)[changed] ^= 0xFFFF
    diff = make_diff(page, twin)
    target = twin.copy()
    loops = _count(4000, scale)

    def make_once() -> float:
        t0 = time.perf_counter()
        for _ in range(loops):
            make_diff(page, twin)
        return (time.perf_counter() - t0) / loops

    def apply_once() -> float:
        t0 = time.perf_counter()
        for _ in range(loops):
            apply_diff(target, diff)
        return (time.perf_counter() - t0) / loops

    return {
        "tmk.page_fetch_us": (_median(fetch_once) * 1e6, "us", faults),
        "tmk.diff_make_us": (_median(make_once) * 1e6, "us", loops),
        "tmk.diff_apply_us": (_median(apply_once) * 1e6, "us", loops),
    }


# ---------------------------------------------------------------------- #
# repro.msg

def msg_layer(scale: float) -> dict:
    from repro.msg.pvme import Pvme
    from repro.sim import Cluster

    trips = _count(4000, scale)
    casts = _count(40, scale)
    block = np.zeros(1 << 20, dtype=np.uint8)

    def pingpong(env):
        pvme = Pvme(env)
        for _ in range(trips):
            if pvme.tid == 0:
                pvme.send(1, 1.0)
                pvme.recv(src=1)
            else:
                pvme.recv(src=0)
                pvme.send(0, 1.0)

    def broadcast(env):
        pvme = Pvme(env)
        for _ in range(casts):
            pvme.bcast(block if pvme.tid == 0 else None, root=0)

    def timed(nprocs, program) -> float:
        t0 = time.perf_counter()
        Cluster(nprocs=nprocs).run(program)
        return time.perf_counter() - t0

    pp = _median(lambda: timed(2, pingpong))
    bc = _median(lambda: timed(8, broadcast))
    return {
        "msg.sendrecv_us": (pp / (2 * trips) * 1e6, "us", 2 * trips),
        "msg.bcast_mb_per_s": (casts * 7 * block.nbytes / 1e6 / bc, "MB/s",
                               casts),
    }


# ---------------------------------------------------------------------- #
# repro.compiler / repro.apps

def compiler_layer(scale: float) -> dict:
    import repro.apps  # noqa: F401 - registers the applications
    from repro.apps.common import get_app
    from repro.compiler.depend import analyze_program
    from repro.compiler.lint import lint_program
    from repro.compiler.model import model_variant
    from repro.compiler.spf import compile_spf
    from repro.compiler.xhpf import compile_xhpf

    reps = _count(20, scale)
    out: dict = {}

    def ms(fn, reps=reps) -> float:
        def once():
            t0 = time.perf_counter()
            fn()
            return time.perf_counter() - t0
        return _median(once, reps) * 1e3

    spf_variant = {k.app: k.variant for k in SIM_KEYS
                   if k.variant.startswith("spf")}
    xhpf_apps = {k.app for k in SIM_KEYS if k.variant == "xhpf"}
    for app in SIM_APPS:
        spec = get_app(app)

        def build():
            return spec.build_program(spec.params("bench"))

        out[f"compiler.build_ms.{app}"] = (ms(build), "ms", reps)
        program = build()
        if app in spf_variant:
            options = (spec.spf_opt_options()
                       if spf_variant[app] == "spf_opt" else None)
            out[f"compiler.compile_spf_ms.{app}"] = (
                ms(lambda: compile_spf(program, 8, options)), "ms", reps)
        if app in xhpf_apps:
            out[f"compiler.compile_xhpf_ms.{app}"] = (
                ms(lambda: compile_xhpf(program, 8)), "ms", reps)

    messages, seconds = 0, 0.0
    for app in ALL_APPS:
        t0 = time.perf_counter()
        cell = model_variant(app, "spf", 64, "test", seq_time=1.0)
        dt = time.perf_counter() - t0
        out[f"compiler.model_cell_s.{app}"] = (dt, "s", 1)
        messages += cell.total_messages
        seconds += dt
    out["compiler.model_msgs_per_s"] = (messages / seconds, "1/s", messages)

    programs = [get_app(app).build_program(get_app(app).params("test"))
                for app in ALL_APPS]
    few = _count(5, scale)              # a lint pass takes ~0.1 s
    out["compiler.lint_ms"] = (
        ms(lambda: [lint_program(p, 8) for p in programs], few), "ms", few)
    out["compiler.depend_ms"] = (
        ms(lambda: [analyze_program(p, 8) for p in programs]), "ms", reps)
    return out


def apps_layer() -> dict:
    """The ``seq`` variant at the ``bench`` preset: the loop-body numpy
    with no simulator at all — the floor no engine change can go below."""
    from repro.api import ProgramCache, execute

    out = {}
    for app in SIM_APPS:
        request = Key(app, "seq", 1, "bench").request()
        t0 = time.perf_counter()
        execute(request, ProgramCache())
        out[f"apps.seq_run_s.{app}"] = (time.perf_counter() - t0, "s", 1)
    return out


# ---------------------------------------------------------------------- #
# repro.api

def api_keys(scale: float, handoff_us: float) -> dict:
    """Per sim key: warm median, cold-minus-warm, and the computed shares.

    ``share.engine`` = handoff cost x events / wall, ``share.compute`` =
    the ``seq`` variant of the same app and preset / wall, ``share.other``
    = the remainder (protocol + network + msg + api).  They are *computed*
    from outside, not measured inside the engine, and sum to 1 by
    construction; ``share.engine`` > 1 would mean the unit cost is wrong.
    """
    from repro.api import ProgramCache, execute

    warm_runs = 2 if scale >= 1.0 else 1
    out = {}
    seq_cache: dict = {}
    for key in SIM_KEYS:
        request = key.request()
        cache = ProgramCache()
        t0 = time.perf_counter()
        execute(request, cache)
        cold = time.perf_counter() - t0
        warm = []
        for _ in range(warm_runs):
            t0 = time.perf_counter()
            result = execute(request, cache)
            warm.append(time.perf_counter() - t0)
        p50 = statistics.median(warm)
        if (key.app, key.preset) not in seq_cache:
            t0 = time.perf_counter()
            execute(Key(key.app, "seq", 1, key.preset).request(),
                    ProgramCache())
            seq_cache[key.app, key.preset] = time.perf_counter() - t0
        engine = handoff_us * 1e-6 * result.events / p50
        compute = seq_cache[key.app, key.preset] / p50
        out[f"api.exec_p50_s.{key.label}"] = (p50, "s", warm_runs)
        out[f"api.cache_miss_cost_s.{key.label}"] = (cold - p50, "s", 1)
        out[f"share.engine.{key.label}"] = (engine, "ratio", result.events)
        out[f"share.compute.{key.label}"] = (compute, "ratio", 1)
        out[f"share.other.{key.label}"] = (1.0 - engine - compute, "ratio", 1)
    return out


def api_fixed(scale: float) -> dict:
    from repro.api import ProgramCache, RunRequest, RunResult, execute

    loops = _count(200, scale)
    cache = ProgramCache()
    cheapest = Key("jacobi", "pvme", 2, "test").request()
    execute(cheapest, cache)

    def floor_once() -> float:
        t0 = time.perf_counter()
        execute(cheapest, cache)
        return time.perf_counter() - t0

    result = execute(Key("jacobi", "spf", 8, "test").request(), cache)
    request = Key("jacobi", "spf", 8, "test").request(tag="r-000001")
    json_loops = _count(2000, scale)

    def json_us(obj, cls) -> float:
        t0 = time.perf_counter()
        for _ in range(json_loops):
            cls.from_json(json.loads(json.dumps(obj.to_json())))
        return (time.perf_counter() - t0) / json_loops * 1e6

    return {
        "api.floor_us": (_median(floor_once, loops) * 1e6, "us", loops),
        "api.result_json_us": (_median(lambda: json_us(result, RunResult)),
                               "us", json_loops),
        "api.request_json_us": (_median(lambda: json_us(request, RunRequest)),
                                "us", json_loops),
    }


# ---------------------------------------------------------------------- #
# repro.serve

def serve_echo(scale: float, workers: int) -> dict:
    """Spawn cost and per-request round trip of pool, wire and fleet with
    the echo runner: the plumbing alone, no simulator run behind it."""
    import echo
    from repro.serve import FleetService, RunService, WireClient, WireServer

    trips = _count(200, scale)
    request = Key("jacobi", "pvme", 2, "test").request()

    def rtt_ms(call, trips: int) -> float:
        samples = []
        for _ in range(trips):
            t0 = time.perf_counter()
            result = call(request)
            samples.append(time.perf_counter() - t0)
            if not result.ok:
                raise RuntimeError(f"echo request failed: {result.error}")
        return statistics.median(samples) * 1e3

    def host(stack, pool):
        server = WireServer(pool)
        server.serve_in_thread()
        stack.callback(server.close)
        return f"{server.host}:{server.port}"

    out = {}
    with contextlib.ExitStack() as stack:
        t0 = time.perf_counter()
        pool = stack.enter_context(RunService(workers=workers,
                                              runner=echo.RUNNER))
        pool.run_batch([request])
        out["serve.spawn_s"] = (time.perf_counter() - t0, "s", 1)
        out["serve.echo_rtt_ms"] = (
            rtt_ms(lambda r: pool.run_batch([r]).results[0], trips), "ms", trips)
        first = host(stack, pool)
        with WireClient(*first.split(":")) as client:
            out["serve.wire_echo_rtt_ms"] = (rtt_ms(client.run, trips), "ms",
                                             trips)
        # the fleet fronts two such hosts; the second has a pool of its own
        second = host(stack, stack.enter_context(
            RunService(workers=1, runner=echo.RUNNER)))
        fleet = stack.enter_context(FleetService([first, second]))
        few = _count(30, scale)      # the fleet polls: ~45 ms a round trip
        out["serve.fleet_echo_rtt_ms"] = (
            rtt_ms(lambda r: fleet.run_batch([r]).results[0], few), "ms", few)
    return out


# ---------------------------------------------------------------------- #
# repro.eval / repro.cli

def eval_cli(src_dir: str) -> dict:
    from repro.eval.sweep import run_sweep

    t0 = time.perf_counter()
    run_sweep(["jacobi", "mgs"], nodes=(16, 64), preset="test")
    sweep = time.perf_counter() - t0

    env = dict(os.environ, PYTHONPATH=src_dir)

    def spawn(args) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable] + args, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    return {
        "eval.sweep_wall_s": (sweep, "s", 1),
        "cli.import_s": (_median(lambda: spawn(["-c", "import repro.api"])),
                         "s", REPS),
        "cli.cold_run_s": (_median(lambda: spawn(
            ["-m", "repro", "run", "jacobi", "spf", "--preset", "test",
             "-n", "4"])), "s", REPS),
    }


def run_all(scale: float, all_cpus: list, workers: int, src_dir: str) -> dict:
    """Every workload-independent kernel, innermost layer first."""
    out = {}
    out.update(sim_engine(scale, all_cpus))
    out.update(sim_network(scale))
    out.update(tmk_sync(scale))
    out.update(tmk_pages(scale))
    out.update(msg_layer(scale))
    out.update(compiler_layer(scale))
    out.update(apps_layer())
    out.update(api_keys(scale, out["sim.handoff_us"][0]))
    out.update(api_fixed(scale))
    out.update(serve_echo(scale, workers))
    out.update(eval_cli(src_dir))
    return out

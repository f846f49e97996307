"""A finished run frees its world by reference count (DESIGN.md section 5).

``Simulator``/``Cluster``/``tmk_run`` cut their own cycles in the ``finally``
that ends the run, so a dead world never waits for a generation-2 GC pass
under the next, live one.  The census below is the contract: with the cyclic
collector off during a run, a ``gc.DEBUG_SAVEALL`` pass afterwards -- which
keeps exactly what only the collector could have freed -- finds no world
object, whether the run succeeded or failed, through any tier.
"""

import collections
import gc
import tracemalloc
import types
from unittest import mock

import pytest

from repro.api import (InProcess, ProgramCache, RunRequest, execute,
                       fault_plan_to_doc)
from repro.api.registry import DSM_VARIANTS
from repro.apps import jacobi
from repro.compiler.spf import compile_spf, run_spf
from repro.compiler.xhpf import compile_xhpf, run_xhpf
from repro.msg.pvme import Pvme
from repro.sim.cluster import Cluster, ProcEnv
from repro.sim.engine import Deadlock, Process, SimError, Simulator
from repro.sim.faults import FaultPlan
from repro.sim.network import Network
from repro.tmk.api import TmkWorld, tmk_run
from repro.tmk.protocol import TmkNode
from repro.tmk.racecheck import RaceMonitor

from .conftest import stencil_program

WORLD = (TmkNode, ProcEnv, Process, Simulator, Cluster, Network, TmkWorld,
         RaceMonitor, types.GeneratorType)


def _world_objects(objects) -> dict:
    return dict(collections.Counter(
        type(o).__name__ for o in objects if isinstance(o, WORLD)))


def census(fn):
    """Call ``fn()`` with the cyclic collector off; return ``(value, counts)``:
    what it returned (or raised -- the exception is dropped with its
    traceback, as a caller that handled it would), and how many world
    objects were left for the collector, by class."""
    gc.collect()
    gc.disable()
    try:
        try:
            value = fn()
        except Exception as exc:    # noqa: BLE001 - the failure is the subject
            value = type(exc)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        counts = _world_objects(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return value, counts


def live_world_objects() -> dict:
    """World objects alive right now, reachable or not."""
    return _world_objects(gc.get_objects())


# ---------------------------------------------------------------------- #
# every variant family, every run option, through execute()

CACHE = ProgramCache()
OPTIONS = {
    "plain": {},
    "racecheck": {"racecheck": True},
    "readback": {"readback": True},
    "schedule_seed": {"schedule_seed": 3},
    "faults": {"fault_plan": fault_plan_to_doc(FaultPlan.default())},
}
MATRIX = [(variant, option)
          for variant in ("spf", "spf_old", "spf_opt", "spf_spec", "tmk",
                          "xhpf", "xhpf_ie", "pvme")
          for option in OPTIONS
          if variant in DSM_VARIANTS or option not in ("racecheck",
                                                       "readback")]


def _request(variant, app="jacobi", **extra):
    return RunRequest(app=app, variant=variant, nprocs=4, preset="test",
                      seq_time=1.0, **extra)


@pytest.mark.parametrize("variant,option", MATRIX)
def test_execute_leaves_no_world_for_the_collector(variant, option):
    result, left = census(
        lambda: execute(_request(variant, **OPTIONS[option]), CACHE))
    assert result.ok
    assert left == {}


def test_spf_spec_misspeculation_run_leaves_no_world():
    """nbf's scatter loop is the one spf_spec speculates on: the monitor is
    forced on and read mid-run, and must still let go of the world."""
    result, left = census(
        lambda: execute(_request("spf_spec", app="nbf"), CACHE))
    assert result.ok and result.speculation["monitored"]
    assert left == {}


def test_model_mode_builds_no_world_at_all():
    _result, left = census(
        lambda: execute(_request("spf", mode="model"), CACHE))
    assert left == {}


# ---------------------------------------------------------------------- #
# direct callers of the two owners under execute()

def _setup(space):
    space.alloc("x", (2048,), "float64")


def _touch(tmk):
    x = tmk.array("x")
    lo, hi = tmk.block_range(2048)
    x.write((slice(lo, hi),), float(tmk.pid))
    tmk.barrier()
    return float(x.read((slice(0, 2048),)).sum())


def test_tmk_run_with_tracer_and_monitor_keeps_results_and_frees_nodes():
    result, left = census(
        lambda: tmk_run(4, _touch, _setup, trace=True, racecheck=True))
    assert left == {}
    # what callers read today is still readable ...
    assert result.racecheck.ok and len(result.trace) > 0
    assert result.race_monitor.world.space["x"].shape == (2048,)
    assert result.race_monitor.finish().n_events == result.racecheck.n_events
    # ... and the result pins none of its world
    assert result.race_monitor.world.nodes == {}
    assert result.race_monitor.world.race_monitor is None


def test_cluster_run_keeps_its_readable_surface_and_frees_the_rest():
    def ring(env):
        env.mark("start")
        yield from env.net.send_gen(env.pid, (env.pid + 1) % env.nprocs,
                                    env.pid, nbytes=8)
        yield from env.compute_gen(1e-3)
        return (yield from env.net.recv_gen(env.proc, env.pid)).payload

    def run():
        cluster = Cluster(nprocs=4)
        return cluster, cluster.run(ring)

    (cluster, result), left = census(run)
    assert left == {}
    assert result.results == [3, 0, 1, 2]
    assert cluster.envs == [] and cluster.net.stats.messages == 4
    assert sorted(cluster.marks["start"]) == [0, 1, 2, 3]
    assert (cluster.sim.now, cluster.sim.events, cluster.sim.switches) == (
        result.time, result.events, result.switches)
    with pytest.raises(RuntimeError, match="single-use"):
        cluster.run(ring)


# ---------------------------------------------------------------------- #
# failed runs: the traceback is the only thing that may hold the world

def _raises(tmk):
    tmk.barrier()
    if tmk.pid == 1:
        raise ValueError("boom at pid 1")
    tmk.barrier()


def _deadlocks(tmk):
    _touch(tmk)
    if tmk.pid:
        tmk.barrier()           # processor 0 never arrives


def _mp_deadlocks(env):
    env.net.recv(env.proc, env.pid, tag=7)


def _stencil_with_a_failing_kernel():
    """The copy loop's kernel raises on its second time step, mid-run."""
    program = stencil_program()
    copy = next(s for s in program.flat_statements()
                if getattr(s, "name", None) == "copy")
    kernel, calls = copy.kernel, []

    def failing(views, lo, hi):
        calls.append(lo)
        if len(calls) > 4:
            raise ValueError("boom in a kernel")
        return kernel(views, lo, hi)

    copy.kernel = failing
    return program


def _spf_then_deadlock():
    """Compiled mains are generator processes: teardown closes them where
    they are suspended, here in a barrier processor 0 never joins."""
    exe = compile_spf(stencil_program(), 4)

    def main(tmk):
        out = yield from exe.run_on(tmk)
        if tmk.pid:
            yield from tmk.barrier_gen()
        return out

    return tmk_run(4, main, exe.setup_space)


def _xhpf_then_deadlock():
    exe = compile_xhpf(stencil_program(), 4)

    def main(env):
        yield from exe.run_on(env)
        yield from env.net.recv_gen(env.proc, env.pid, tag=7)

    return Cluster(nprocs=4).run(main)


def _hand_tmk_kernel_raise():
    """jacobi's hand_tmk, whose stencil kernel raises mid-run: the hand-coded
    mains are generator processes, closed by teardown where they stand."""
    real, calls = jacobi.stencil_rows, []

    def failing(*args):
        calls.append(args)
        if len(calls) > 6:
            raise ValueError("boom in a hand-coded kernel")
        return real(*args)

    with mock.patch.object(jacobi, "stencil_rows", failing):
        return execute(_request("tmk"), CACHE)


def _hand_pvme_deadlock():
    """jacobi's hand_pvme with processor 0's sends lost: its neighbour's
    recv is never matched."""
    real = Pvme.send_gen

    def send_gen(pvme, dst, payload, tag=0):
        if pvme.tid == 0:
            return iter(())             # the message never leaves
        return real(pvme, dst, payload, tag)

    with mock.patch.object(Pvme, "send_gen", send_gen):
        return execute(_request("pvme"), CACHE)


FAILURES = {
    "raise": (lambda: tmk_run(4, _raises, _setup, racecheck=True), SimError),
    "deadlock": (lambda: tmk_run(4, _deadlocks, _setup), Deadlock),
    "mp-deadlock": (lambda: Cluster(nprocs=2).run(_mp_deadlocks), Deadlock),
    "spf-kernel-raise": (
        lambda: run_spf(_stencil_with_a_failing_kernel(), nprocs=4),
        SimError),
    "xhpf-kernel-raise": (
        lambda: run_xhpf(_stencil_with_a_failing_kernel(), nprocs=4),
        SimError),
    "spf-deadlock": (_spf_then_deadlock, Deadlock),
    "xhpf-deadlock": (_xhpf_then_deadlock, Deadlock),
    "hand-tmk-kernel-raise": (_hand_tmk_kernel_raise, SimError),
    "hand-pvme-deadlock": (_hand_pvme_deadlock, Deadlock),
}


@pytest.mark.parametrize("name", FAILURES)
def test_failed_run_raw_leaves_no_world(name):
    run, expected = FAILURES[name]
    raised, left = census(run)
    assert raised is expected
    assert left == {}


@pytest.mark.parametrize("name", FAILURES)
def test_failed_run_through_inprocess_is_structured_and_pins_nothing(name):
    run, expected = FAILURES[name]
    tier = InProcess(runner=lambda doc, cache: run())
    stream = tier.stream([_request("tmk")])
    gc.collect()
    before = live_world_objects()

    def first():
        return next(stream)[1]

    result, left = census(first)
    assert not result.ok and result.error_kind == expected.__name__
    assert left == {}
    # the stream is still suspended inside its loop: neither it nor the
    # handled exception's traceback keeps a world object alive
    assert live_world_objects() == before
    stream.close()


# ---------------------------------------------------------------------- #
# bytes, host-independent: traced memory returns to the pre-run baseline

def test_traced_memory_is_back_at_the_baseline_when_execute_returns():
    """jacobi-tmk at the bench size peaks near 100 MB above the baseline
    (node images, twins, diffs).  With the collector off, what is still
    allocated when ``execute`` returns was 85 % of that peak at the parent;
    now it is the result plus interpreter free lists (about 0.1 %)."""
    request = RunRequest(app="jacobi", variant="tmk", nprocs=2,
                         preset="bench", seq_time=1.0)
    execute(request, CACHE)                 # compile, import, warm caches
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = execute(request, CACHE)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert result.ok
    assert peak - base > 50 << 20           # the run was the bench size
    assert current - base < 0.05 * (peak - base)

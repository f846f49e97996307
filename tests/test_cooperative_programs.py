"""Compiler-generated programs are generator processes (engine stage 2a).

``SpfExecutable.run_on`` / ``XhpfExecutable.run_on`` and every blocking
operation under them are generators of engine block requests, so a run of
any of the six compiler variants creates no ``simproc-`` thread, hands no
baton (``switches == 0``) and executes every kernel on the caller's thread --
while staying, event for event, the simulation a thread main that ``drive``s
the same generator gives.
"""

import cProfile
import inspect
import pstats
import sys
import threading

import pytest

from repro.api import RunRequest, execute, registry
from repro.apps.common import get_app
from repro.compiler.ir import SeqBlock
from repro.compiler.spf import SpfExecutable, SpfOptions, compile_spf
from repro.compiler.xhpf import XhpfExecutable, XhpfOptions, compile_xhpf
from repro.sim.cluster import Cluster
from repro.sim.engine import Deadlock
from repro.sim.faults import FaultPlan
from repro.tmk.api import tmk_run
from repro.tmk.protocol import TAG_FORK, TAG_JOIN

from .conftest import irregular_program, stencil_program
from .test_engine import _cluster_results

COMPILER_VARIANTS = ("spf", "spf_old", "spf_opt", "spf_spec", "xhpf",
                     "xhpf_ie")


# ---------------------------------------------------------------------- #
# no thread, no baton, kernels on the caller's thread

@pytest.mark.parametrize("nprocs", [2, 5])
@pytest.mark.parametrize("variant, app", [
    (variant, app) for variant in COMPILER_VARIANTS
    for app in ("jacobi", "igrid", "nbf")
    if not registry.supports(app, variant)])    # spf_opt: jacobi only
def test_compiled_run_owns_no_thread(monkeypatch, variant, app, nprocs):
    started, kernel_threads = [], []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    results = _cluster_results(monkeypatch)

    spec = get_app(app)
    real_build = spec.build_program

    def build_program(params):
        program = real_build(params)
        block = next(s for s in program.flat_statements()
                     if isinstance(s, SeqBlock))
        kernel = block.kernel

        def spying_kernel(views):
            kernel_threads.append(threading.get_ident())
            return kernel(views)

        block.kernel = spying_kernel
        return program

    monkeypatch.setattr(spec, "build_program", build_program)
    result = execute(RunRequest(app, variant, nprocs=nprocs, preset="test",
                                seq_time=1.0))
    assert result.ok
    assert [name for name in started if name.startswith("simproc-")] == []
    assert results[-1].switches == 0
    assert kernel_threads and set(kernel_threads) == {threading.get_ident()}


# ---------------------------------------------------------------------- #
# the same executable as generator processes and under thread mains

def _fingerprint(result):
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
    exe = compile_xhpf(program(), 4, XhpfOptions(inspector_executor=inspector))
    cooperative = Cluster(nprocs=4, **RUN_OPTIONS[option]).run(exe.run_on)
    threaded = Cluster(nprocs=4, **RUN_OPTIONS[option]).run(
        _driven(exe.run_on))
    assert cooperative.switches == 0 < threaded.switches
    assert _fingerprint(cooperative) == _fingerprint(threaded)


# ---------------------------------------------------------------------- #
# a compiled run is visible to a profiler on the calling thread

def test_cprofile_on_the_calling_thread_sees_the_whole_run():
    """With thread mains the caller's profile held `Simulator.run` waiting
    on a lock and nothing below it."""
    request = RunRequest("jacobi", "spf", nprocs=4, preset="test",
                         seq_time=1.0)
    profile = cProfile.Profile()
    profile.enable()
    try:
        assert execute(request).ok
    finally:
        profile.disable()
    seen = {(path.rsplit("/", 1)[-1], name)
            for path, _line, name in pstats.Stats(profile).stats}
    for frame in [("partition.py", "run"), ("forkjoin.py", "fork_gen"),
                  ("forkjoin.py", "join_gen"), ("sync.py", "_await_grant"),
                  ("network.py", "recv_gen"), ("protocol.py", "_fetch"),
                  ("jacobi.py", "stencil_kernel")]:
        assert frame in seen, frame


# ---------------------------------------------------------------------- #
# the PR 3 fast path: a footprint check that hits allocates no generator

class _ProbedSpf(SpfExecutable):
    """Validates the copy loop's footprint twice before running it: the
    second pass, over what the first just made current, must be plain
    calls."""

    generator_frames = None

    def _run_chunk(self, tmk, loop, views, chunk=None, stage=None):
        if loop.name == "copy" and tmk.pid == 1:
            chunk = self.chunk(loop, tmk.pid)
            accesses = ([(acc, False) for acc in loop.reads]
                        + [(acc, True) for acc in loop.writes])
            for acc, write in accesses:
                miss = self._ensure(tmk, acc, chunk, views, write, loop.name)
                if miss is not None:
                    yield from miss
            frames = []

            def hook(frame, event, _arg):
                if event == "call" and frame.f_code.co_flags & inspect.CO_GENERATOR:
                    frames.append(frame.f_code.co_name)

            sys.setprofile(hook)
            try:
                verdicts = [self._ensure(tmk, acc, chunk, views, write,
                                         loop.name)
                            for acc, write in accesses]
            finally:
                sys.setprofile(None)
            assert verdicts == [None] * len(accesses)
            type(self).generator_frames = frames
        yield from super()._run_chunk(tmk, loop, views, chunk, stage)


@pytest.mark.parametrize("aggregate", [False, True])
def test_a_validated_footprint_is_rechecked_without_a_generator(aggregate):
    exe = _ProbedSpf(stencil_program(), SpfOptions(aggregate=aggregate), 4)
    result = tmk_run(4, exe.run_on, exe.setup_space)
    assert result.switches == 0
    assert _ProbedSpf.generator_frames == []


# ---------------------------------------------------------------------- #
# a stuck compiled run says where, per processor

class _LossyXhpf(XhpfExecutable):
    """Processor 0 skips its boundary sends: its neighbour's recv is never
    matched."""

    def _exchange_block(self, env, comm, loop, views):
        if env.pid != 0:
            yield from super()._exchange_block(env, comm, loop, views)


class _ForgetfulSpf(SpfExecutable):
    """Worker 1 runs its first chunk and leaves without ``work_done``."""

    def _run_worker(self, tmk, fj, views):
        if tmk.pid != 1:
            return (yield from super()._run_worker(tmk, fj, views))
        work = yield from fj.wait_for_work_gen()
        yield from self._run_unit_chunks(tmk, int(work[0]), views)


def test_xhpf_deadlock_names_the_backend_frame_of_every_stuck_processor():
    exe = _LossyXhpf(stencil_program(), XhpfOptions(), 3)
    with pytest.raises(Deadlock) as exc:
        Cluster(nprocs=3).run(exe.run_on)
    text = str(exc.value)
    # cpu1 waits for cpu0's halo rows; the others got past the exchange and
    # wait in the reduction for cpu1's partial
    assert ("cpu1 parked at ('recv', 1, 0, 2000) in run_on > _run_loop > "
            "_exchange_block > _exchange_block > recv_gen > recv_gen "
            "(network.py:") in text
    assert ("cpu0 parked at ('recv', 0, 1, 500001) in run_on > _run_loop > "
            "_fold_reductions > allreduce_gen > reduce_gen > recv_gen > "
            "recv_gen (network.py:") in text
    assert ("cpu2 parked at ('recv', 2, 0, 500002) in run_on > _run_loop > "
            "_fold_reductions > allreduce_gen > bcast_gen > recv_gen > "
            "recv_gen (network.py:") in text
    assert "cpu1 waiting on recv(src=0, tag=2000)" in text


def test_spf_deadlock_names_the_backend_frame_of_every_stuck_processor():
    exe = _ForgetfulSpf(stencil_program(), SpfOptions(), 3)
    with pytest.raises(Deadlock) as exc:
        tmk_run(3, exe.run_on, exe.setup_space)
    text = str(exc.value)
    assert "2 process(es) still blocked" in text        # cpu1 left
    assert (f"cpu0 parked at ('recv', 0, -1, {TAG_JOIN}) in wrapper > run_on "
            f"> _run_master > _run_unit_forked > join_gen > recv_gen "
            f"(network.py:") in text
    assert (f"cpu2 parked at ('recv', 2, 0, {TAG_FORK}) in wrapper > run_on "
            f"> _run_worker > _run_worker > wait_for_work_gen > recv_gen "
            f"(network.py:") in text


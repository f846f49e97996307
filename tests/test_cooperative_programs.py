"""Every program ``execute()`` runs is a generator process.

Compiled (``SpfExecutable.run_on`` / ``XhpfExecutable.run_on``) and
hand-coded (``AppSpec.hand_tmk`` / ``hand_pvme``) programs alike, and every
blocking operation under them, are generators of engine block requests, so
a run of any variant creates no ``simproc-`` thread, hands no baton
(``switches == 0``) and executes every kernel on the caller's thread.  That
such a program is, event for event, the simulation a thread main that
``drive``s the same generator gives -- and that a plain-function program is
the same simulation as its generator form -- is the thread kind's contract,
tested in ``tests/test_engine.py``.
"""

import cProfile
import inspect
import pstats
import sys
import threading

import numpy as np
import pytest

from repro.api import RunRequest, execute, registry
from repro.apps.common import AppSpec, get_app, register
from repro.compiler.ir import SeqBlock
from repro.compiler.spf import SpfExecutable, SpfOptions
from repro.compiler.xhpf import XhpfExecutable
from repro.sim.cluster import Cluster
from repro.sim.engine import Deadlock
from repro.tmk.api import tmk_run
from repro.tmk.protocol import TAG_FORK, TAG_JOIN, TmkNode

from .conftest import stencil_program
from .test_apps_correctness import APPS, KNOWN_DEFECTS
from .test_engine import _cluster_results

COMPILER_VARIANTS = ("spf", "spf_old", "spf_opt", "spf_spec", "xhpf",
                     "xhpf_ie")


def _spy_threads(monkeypatch):
    """Names of the threads started from now on."""
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


# ---------------------------------------------------------------------- #
# no thread, no baton, kernels on the caller's thread

@pytest.mark.parametrize("nprocs", [2, 5])
@pytest.mark.parametrize("variant, app", [
    (variant, app) for variant in COMPILER_VARIANTS
    for app in ("jacobi", "igrid", "nbf")
    if not registry.supports(app, variant)])    # spf_opt: jacobi only
def test_compiled_run_owns_no_thread(monkeypatch, variant, app, nprocs):
    kernel_threads = []
    started = _spy_threads(monkeypatch)
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


#: one numpy kernel each app's hand-coded programs (both of them) call
HAND_KERNEL = {"jacobi": "stencil_rows", "shallow": "step1_rows",
               "mgs": "orthogonalize_rows", "fft3d": "fft_dim2_rows",
               "igrid": "update_rows", "nbf": "pair_forces_rows"}


@pytest.mark.parametrize("app, variant, nprocs", [
    (app, variant, nprocs) for app in APPS for variant in ("tmk", "pvme")
    for nprocs in (2, 3, 5, 8)
    if (app, variant, nprocs) not in KNOWN_DEFECTS])
def test_hand_coded_run_owns_no_thread(monkeypatch, app, variant, nprocs):
    kernel_threads = []
    started = _spy_threads(monkeypatch)
    results = _cluster_results(monkeypatch)
    module = sys.modules[get_app(app).hand_tmk.__module__]
    kernel = getattr(module, HAND_KERNEL[app])

    def spying_kernel(*args):
        kernel_threads.append(threading.get_ident())
        return kernel(*args)

    monkeypatch.setattr(module, HAND_KERNEL[app], spying_kernel)
    result = execute(RunRequest(app, variant, nprocs=nprocs, preset="test",
                                seq_time=1.0))
    assert result.ok
    assert [name for name in started if name.startswith("simproc-")] == []
    assert results[-1].switches == 0
    assert kernel_threads and set(kernel_threads) == {threading.get_ident()}


def test_register_refuses_a_plain_hand_coded_program():
    """A plain function would silently bring a thread per processor back on
    every run of the app."""
    jacobi = get_app("jacobi")

    def plain_tmk(tmk, params):
        return {}

    spec = AppSpec(name="plain-app", regular=True,
                   build_program=jacobi.build_program,
                   hand_tmk_setup=jacobi.hand_tmk_setup, hand_tmk=plain_tmk,
                   hand_pvme=jacobi.hand_pvme)
    with pytest.raises(TypeError, match="plain-app: hand_tmk must be a "
                                        "generator function"):
        register(spec)
    spec.hand_tmk, spec.hand_pvme = jacobi.hand_tmk, lambda p, params: {}
    with pytest.raises(TypeError, match="plain-app: hand_pvme"):
        register(spec)
    assert "plain-app" not in registry._specs()


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


def test_cprofile_on_the_calling_thread_sees_a_hand_coded_run():
    """The hand-coded variants' ledger: the program, its barriers and its
    page fetches all run on the thread that called ``execute``."""
    request = RunRequest("fft3d", "tmk", nprocs=2, preset="test",
                         seq_time=1.0)
    profile = cProfile.Profile()
    profile.enable()
    try:
        assert execute(request).ok
    finally:
        profile.disable()
    seen = {(path.rsplit("/", 1)[-1], name)
            for path, _line, name in pstats.Stats(profile).stats}
    for frame in [("fft3d.py", "hand_tmk"), ("fft3d.py", "one_iteration"),
                  ("fft3d.py", "fft_dim2_rows"), ("sync.py", "barrier_gen"),
                  ("protocol.py", "_fetch"), ("network.py", "recv_gen")]:
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


def test_a_twinned_region_is_rewritten_without_a_generator(monkeypatch):
    """A hand-coded program's second ``writable_steps`` on a region it has
    already twinned is a plain call: ``None``, no miss-path generator made,
    no generator frame run."""
    misses = []
    real_write_faults = TmkNode._write_faults

    def write_faults(node, pages, vkey=None):
        misses.append(node.pid)
        return real_write_faults(node, pages, vkey)

    monkeypatch.setattr(TmkNode, "_write_faults", write_faults)

    def setup(space):
        space.alloc("a", (4, 1024), np.float32)

    def program(tmk):
        a = tmk.array("a")
        rows = (slice(tmk.pid, tmk.pid + 1), slice(None))
        steps = a.writable_steps(rows)
        assert steps is not None            # first write: trap + twin
        yield from steps
        a.raw()[rows] = tmk.pid
        first, frames = len(misses), []

        def hook(frame, event, _arg):
            if event == "call" and frame.f_code.co_flags & inspect.CO_GENERATOR:
                frames.append(frame.f_code.co_name)

        sys.setprofile(hook)
        try:
            again = a.writable_steps(rows)
        finally:
            sys.setprofile(None)
        return again, len(misses) - first, frames

    result = tmk_run(2, program, setup)
    assert result.switches == 0
    assert result.results == [(None, 0, []), (None, 0, [])]


# ---------------------------------------------------------------------- #
# a stuck compiled run says where, per processor

class _LossyXhpf(XhpfExecutable):
    """Processor 0 skips its boundary sends: its neighbour's recv is never
    matched."""

    def _exchange_block(self, env, comm, step, views):
        if env.pid != 0:
            yield from super()._exchange_block(env, comm, step, views)


class _ForgetfulSpf(SpfExecutable):
    """Worker 1 runs its first chunk and leaves without ``work_done``."""

    def _run_worker(self, tmk, fj, views):
        if tmk.pid != 1:
            return (yield from super()._run_worker(tmk, fj, views))
        work = yield from fj.wait_for_work_gen()
        yield from self._run_unit_chunks(tmk, int(work[0]), views)


def test_xhpf_deadlock_names_the_backend_frame_of_every_stuck_processor():
    exe = _LossyXhpf(stencil_program(), 3)
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


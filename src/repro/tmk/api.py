"""The TreadMarks application programming interface.

Mirrors the real library's surface: ``Tmk_startup`` (implicit),
``Tmk_proc_id`` / ``Tmk_nprocs`` (:attr:`Tmk.pid` / :attr:`Tmk.nprocs`),
``Tmk_malloc`` (static allocation through :class:`~repro.tmk.pagespace.
SharedSpace` plus per-node :meth:`Tmk.array` binding), ``Tmk_barrier`` and
``Tmk_lock_acquire`` / ``Tmk_lock_release``.

Run a shared-memory program with :func:`tmk_run`::

    def setup(space):
        space.alloc("grid", (1024, 1024), np.float32)

    def program(tmk):
        grid = tmk.array("grid")
        ...
        yield from tmk.barrier_gen()

    result = tmk_run(nprocs=8, program=program, setup=setup)

Every program in :mod:`repro` -- the hand-coded ones and everything the
compiler backends emit -- is a generator function like this one: it runs
with no thread and delegates to each operation's one generator body:
``yield from tmk.compute_gen(dt)``, ``steps = tmk.lock_acquire_steps(0)`` /
``if steps is not None: yield from steps``.
A ``program`` written as a plain function still runs, on a thread of its
own, and may call the blocking forms :meth:`Tmk.barrier`,
:meth:`Tmk.lock_acquire`, :meth:`Tmk.lock_release` and a shared array's
``read``/``write``.
"""

from __future__ import annotations

import inspect
from typing import Callable, Optional, Sequence

from repro.sim.cluster import Cluster, ProcEnv, RunResult
from repro.sim.engine import blocking
from repro.sim.faults import FaultPlan
from repro.sim.machine import MachineModel
from repro.tmk.faststate import fastpath_enabled_from_env
from repro.tmk.pagespace import SharedSpace
from repro.tmk.protocol import TmkNode
from repro.tmk.server import start_server
from repro.tmk.shared import SharedArray
from repro.tmk.stats import DsmStats
from repro.tmk import sync as _sync

__all__ = ["TmkWorld", "Tmk", "tmk_run"]


class TmkWorld:
    """Cluster-wide DSM context: address-space layout and manager state.

    ``gc_epochs`` bounds the diff cache: diffs older than that many barriers
    are collected and later requests fall back to whole-page transfers
    (``None`` disables GC — fine for tests and short runs).
    """

    def __init__(self, nprocs: int, space: SharedSpace,
                 gc_epochs: Optional[int] = 8):
        self.nprocs = nprocs
        self.space = space
        self.gc_epochs = gc_epochs
        # coherence fast path (TMK_FASTPATH=0 disables; see tmk.faststate)
        self.fastpath = fastpath_enabled_from_env()
        self.nodes: dict[int, TmkNode] = {}
        self.barrier_mgr = _sync.BarrierManager(nprocs)
        self.lock_table = _sync.LockTable(nprocs)
        self.dsm_stats = DsmStats()
        self.race_monitor = None   # set by racecheck.attach_race_monitor


class Tmk:
    """Per-processor handle to the DSM (what a program receives)."""

    def __init__(self, env: ProcEnv, world: TmkWorld):
        self.env = env
        self.world = world
        self.pid = env.pid
        self.nprocs = env.nprocs
        self.proc = env.proc
        node_cls = getattr(world, "_node_class", TmkNode)
        self.node = node_cls(world, env)
        start_server(self.node)
        self._arrays: dict[str, SharedArray] = {}

    # ------------------------------------------------------------------ #

    def array(self, name: str) -> SharedArray:
        """Bind (and cache) the local view of a statically allocated array."""
        arr = self._arrays.get(name)
        if arr is None:
            arr = SharedArray(self.node, self.world.space[name])
            self._arrays[name] = arr
        return arr

    def barrier_gen(self):
        return getattr(self.world, "_traced_barrier",
                       _sync.barrier_gen)(self.node)

    def lock_acquire_steps(self, lock: int):
        return _sync.lock_acquire_steps(self.node, lock)

    def lock_release_steps(self, lock: int):
        return _sync.lock_release_steps(self.node, lock)

    def compute_gen(self, seconds: float):
        """Charge application computation time."""
        return self.env.compute_gen(seconds)

    # blocking forms for plain-function (thread) programs
    barrier = blocking(barrier_gen)
    lock_acquire = blocking(lock_acquire_steps)
    lock_release = blocking(lock_release_steps)

    @property
    def now(self) -> float:
        return self.env.now

    # convenience for block distribution (the library offered helpers too)
    def block_range(self, extent: int) -> tuple:
        """This processor's [lo, hi) slice of a block-distributed extent."""
        base, rem = divmod(extent, self.nprocs)
        lo = self.pid * base + min(self.pid, rem)
        hi = lo + base + (1 if self.pid < rem else 0)
        return lo, hi


def tmk_run(nprocs: int,
            program: Callable,
            setup: Callable[[SharedSpace], None],
            args: Sequence = (),
            model: Optional[MachineModel] = None,
            gc_epochs: Optional[int] = 8,
            trace: bool = False,
            schedule_seed: Optional[int] = None,
            racecheck: bool = False,
            faults: Optional[FaultPlan] = None) -> RunResult:
    """Run ``program(tmk, *args)`` on ``nprocs`` simulated processors.

    ``setup(space)`` performs the static shared allocation (every node sees
    the same layout).  The returned :class:`RunResult` additionally carries
    the run's :class:`DsmStats` as ``result.dsm_stats``; with
    ``trace=True`` it also carries a :class:`~repro.tmk.trace.
    ProtocolTrace` as ``result.trace``.

    ``schedule_seed`` perturbs same-timestamp event ordering in the engine
    (each seed is a distinct legal interleaving; ``None`` keeps the
    historical order).  ``racecheck=True`` attaches a
    :class:`~repro.tmk.racecheck.RaceMonitor` and stores its verdict as
    ``result.racecheck`` (a :class:`~repro.tmk.racecheck.RaceCheckResult`).

    ``faults`` attaches a seeded :class:`~repro.sim.faults.FaultPlan` to
    the interconnect (drop/dup/reorder/delay plus node stalls) with the
    reliable-delivery sublayer recovering transparently; retransmission
    counts surface as ``result.dsm_stats.retransmissions`` and the
    injector's tally as ``result.fault_stats``.
    """
    space = SharedSpace()
    setup(space)
    world = TmkWorld(nprocs, space, gc_epochs=gc_epochs)
    if trace:
        from repro.tmk.trace import attach_tracer
        attach_tracer(world)
    if racecheck:
        from repro.tmk.racecheck import attach_race_monitor
        attach_race_monitor(world)
    cluster = Cluster(nprocs=nprocs, model=model, schedule_seed=schedule_seed,
                      faults=faults)

    # the trampoline is of the program's kind: a generator program stays a
    # generator process (no thread), a plain one a thread process
    if inspect.isgeneratorfunction(program):
        def wrapper(env: ProcEnv, *rest):
            return (yield from program(Tmk(env, world), *rest))
    else:
        def wrapper(env: ProcEnv, *rest):
            return program(Tmk(env, world), *rest)

    try:
        result = cluster.run(wrapper, args=args)
        world.dsm_stats.retransmissions = cluster.net.stats.retransmissions
        result.dsm_stats = world.dsm_stats.snapshot()
        result.fault_stats = cluster.net.fault_stats
        if trace:
            result.trace = world.trace
        if racecheck:
            result.race_monitor = world.race_monitor
            result.racecheck = world.race_monitor.finish()
    finally:
        # the world's lifetime ends with the run: nodes <-> world and
        # monitor <-> world are cut (the monitor keeps its ``world``)
        world.nodes.clear()
        world.race_monitor = None
    return result

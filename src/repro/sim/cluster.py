"""Top-level cluster runner: N simulated processors executing one program.

A *program* is a Python callable ``fn(env, *args)`` where ``env`` is the
:class:`ProcEnv` for one simulated processor.  ``Cluster.run`` spawns the
program on every processor, drives the simulation to completion, and returns
a :class:`RunResult` with per-processor virtual finish times and the network
traffic generated by the run.  The kind of process follows from the program,
as everywhere in :mod:`repro.sim.engine`: a generator function (every
program in :mod:`repro`, hand-coded or compiled) runs with no thread, on
the caller's; a plain function still runs, on a thread of its own.

Computation inside programs is charged explicitly with ``yield from
env.compute_gen(seconds)``; the actual numpy work a program performs costs
zero virtual time — wall-clock Python speed never contaminates results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.sim.engine import HOLD, Process, Simulator
from repro.sim.faults import FaultPlan
from repro.sim.machine import MachineModel, SP2_MODEL
from repro.sim.network import Network, NetworkStats

__all__ = ["Cluster", "ProcEnv", "RunResult"]


class ProcEnv:
    """Per-processor execution environment handed to programs.

    Attributes
    ----------
    pid : int
        This processor's id, ``0 <= pid < nprocs``.  Processor 0 plays the
        master role in fork-join programs and hosts barrier management.
    nprocs : int
        Cluster size.
    net : Network
        The shared interconnect (endpoint ``pid`` belongs to this node).
    model : MachineModel
        The platform cost model.
    """

    def __init__(self, cluster: "Cluster", pid: int):
        self.cluster = cluster
        self.pid = pid
        self.nprocs = cluster.nprocs
        self.net = cluster.net
        self.model = cluster.model
        self.sim = cluster.sim
        self.proc: Optional[Process] = None     # set by Cluster.run
        self.busy_time = 0.0

    # ------------------------------------------------------------------ #

    @property
    def now(self) -> float:
        return self.sim.now

    def mark(self, name: str) -> None:
        """Record a measurement boundary for this processor.

        The paper times only part of each run ("the last 100 iterations are
        timed", "excluding the first iteration").  Programs bracket the
        measured region with ``mark("start")`` / ``mark("stop")``; the
        harness reads times and traffic deltas between marks from
        :attr:`RunResult.marks`.
        """
        self.cluster.marks.setdefault(name, {})[self.pid] = (
            self.now, self.net.stats.snapshot())

    def compute_gen(self, seconds: float):
        """Charge ``seconds`` of local computation to this processor
        (generator of block requests)."""
        if seconds < 0:
            raise ValueError(f"negative compute time {seconds}")
        self.busy_time += seconds
        yield HOLD, seconds

    def spawn_server(self, name: str, fn: Callable[..., Any],
                     *args: Any) -> Process:
        """Spawn a daemon process on this node (e.g. a DSM request server);
        a generator function ``fn`` makes it a thread-less generator
        process (see :mod:`repro.sim.engine`)."""
        return self.sim.add_process(f"{name}@{self.pid}", fn, *args,
                                    daemon=True)


@dataclass
class RunResult:
    """Outcome of one cluster run."""

    time: float
    """Virtual completion time of the run: max over processors."""
    proc_times: list[float]
    """Per-processor virtual finish times."""
    stats: NetworkStats
    """Traffic generated by the run (message and byte totals)."""
    results: list[Any] = field(default_factory=list)
    """Per-processor return values of the program."""
    marks: dict = field(default_factory=dict)
    """``name -> {pid: (time, stats snapshot)}`` from :meth:`ProcEnv.mark`."""
    events: int = 0
    """Simulator events popped (process wakeups and callbacks) — a
    wall-clock throughput denominator for ``benchmarks/perf``, not a virtual
    -time quantity."""
    switches: int = 0
    """OS-thread switches the engine made (batons handed from one thread
    process to another; stepping a generator process costs none).
    Deterministic, but a host-cost figure like ``events``: not virtual, not
    part of any fingerprint."""

    @property
    def messages(self) -> int:
        return self.stats.messages

    @property
    def kilobytes(self) -> float:
        return self.stats.kilobytes

    def speedup(self, sequential_time: float) -> float:
        return sequential_time / self.time

    def window(self, start: str = "start", stop: str = "stop"):
        """(elapsed, traffic) between two marks.

        Elapsed is the max over processors of (stop - start); traffic is the
        network-stats delta between the earliest start snapshot and the
        latest stop snapshot.  Falls back to the whole run if the marks are
        absent.
        """
        if start not in self.marks or stop not in self.marks:
            return self.time, self.stats
        starts = self.marks[start]
        stops = self.marks[stop]
        elapsed = max(stops[p][0] - starts[p][0] for p in stops if p in starts)
        first = min(starts.values(), key=lambda ts: ts[1].messages)[1]
        last = max(stops.values(), key=lambda ts: ts[1].messages)[1]
        return elapsed, last.delta(first)


class Cluster:
    """A simulated machine: ``nprocs`` processors plus an interconnect.

    Each :class:`Cluster` is single-use: build one, call :meth:`run` once.
    (Event-queue and traffic state are not reset between runs; the experiment
    harness constructs a fresh cluster per measurement, which is also how the
    paper runs each program in a fresh job.)
    """

    def __init__(self, nprocs: int = 8, model: Optional[MachineModel] = None,
                 schedule_seed: Optional[int] = None,
                 faults: Optional[FaultPlan] = None):
        if nprocs < 1:
            raise ValueError("need at least one processor")
        self.nprocs = nprocs
        self.model = (model or SP2_MODEL).with_(nprocs=nprocs)
        self.sim = Simulator(schedule_seed=schedule_seed)
        self.net = Network(self.sim, nprocs, self.model, faults=faults)
        self.envs: list[ProcEnv] = []
        self.marks: dict = {}
        self._ran = False

    def run(self, program: Callable[..., Any],
            args: Sequence[Any] = ()) -> RunResult:
        """Execute ``program(env, *args)`` on every processor."""
        if self._ran:
            raise RuntimeError("Cluster instances are single-use; build a new one")
        self._ran = True
        procs: list[Process] = []
        for pid in range(self.nprocs):
            # the program itself is the process body, so its kind is the
            # program's; an env and its process name each other
            env = ProcEnv(self, pid)
            env.proc = self.sim.add_process(f"cpu{pid}", program, env, *args)
            procs.append(env.proc)
            self.envs.append(env)
        try:
            self.sim.run()
        finally:
            self.envs.clear()   # envs <-> cluster: the run's lifetime ends here
        times = [p.finish_time if p.finish_time is not None else self.sim.now
                 for p in procs]
        return RunResult(
            time=max(times),
            proc_times=times,
            stats=self.net.stats.snapshot(),
            results=[p.result for p in procs],
            marks=self.marks,
            events=self.sim.events,
            switches=self.sim.switches,
        )

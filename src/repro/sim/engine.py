"""Deterministic discrete-event engine with thread-backed simulated processes.

The engine implements classic process-oriented discrete-event simulation.
Each simulated processor runs ordinary imperative Python (the application
programs, the DSM protocol handlers, the message-passing library) on its own
OS thread, but **exactly one thread executes at any instant**: a thread runs
until it gives up the CPU on a simulation primitive (:meth:`Process.hold`,
:meth:`Process.park`, or by returning from its program), and the thread that
is giving up the CPU is the one that pops the next event, in
``(time, priority, seq)`` order (:meth:`Simulator._dispatch`).  If the event
is its own wakeup it simply carries on; if it is another process's wakeup it
releases that process's baton and blocks on its own — one OS-thread switch
per wakeup; if it is a :meth:`Simulator.schedule_call` callback it runs the
callback inline, on whichever thread happens to be dispatching and with no
current process.  The thread that called :meth:`Simulator.run` only starts
the loop and waits for it to stop.  The ``seq`` tie-break makes scheduling —
and therefore every result in the repository — fully deterministic.

A :class:`Simulator` built with ``schedule_seed=N`` inserts a seeded random
jitter key between ``priority`` and ``seq``, permuting the pop order of
events that share ``(time, priority)``.  Same-time events are exactly the
ones the simulated platform leaves unordered (causally-ordered events always
differ in time because every message and every hold advances the clock), so
each seed explores a distinct *legal* interleaving of the same run — the
schedule fuzzer underneath ``python -m repro racecheck``.  ``None`` keeps
the historical FIFO order bit-for-bit.

Virtual time is a ``float`` in seconds.  Nothing in the engine depends on
wall-clock time; Python's execution speed never leaks into reported numbers.
"""

from __future__ import annotations

import heapq
import random
import threading
import traceback
import warnings
from _thread import allocate_lock
from typing import Any, Callable, Optional

__all__ = ["Simulator", "Process", "SimError", "Deadlock"]


class SimError(RuntimeError):
    """An error raised inside a simulated process, re-raised by :meth:`Simulator.run`."""


class Deadlock(RuntimeError):
    """Raised when every live process is parked and no events remain."""


class Process:
    """A simulated process: a cooperatively-scheduled thread with a virtual clock.

    Application code never constructs these directly; use
    :meth:`Simulator.add_process`.  The public surface relevant to programs is
    :meth:`hold` (advance virtual time / model computation), :meth:`park`
    (block until another process calls :meth:`Simulator.unpark`), and the
    :attr:`now` property.
    """

    def __init__(self, sim: "Simulator", pid: int, name: str,
                 fn: Callable[..., Any], args: tuple, kwargs: dict,
                 daemon: bool = False):
        self.sim = sim
        self.pid = pid
        self.name = name
        self.daemon = daemon
        self._fn = fn
        self._args = args
        self._kwargs = kwargs
        # baton: a bare lock used as a binary semaphore, held (locked) while
        # the process must stay blocked; whoever pops this process's wakeup
        # releases it
        self._resume = allocate_lock()
        self._resume.acquire()
        self.finished = False
        self.finish_time: Optional[float] = None
        self.result: Any = None
        self.parked = False
        self.park_token: Any = None
        self._started = False
        self._thread = threading.Thread(
            target=self._bootstrap, name=f"simproc-{name}", daemon=True)

    # ------------------------------------------------------------------ #
    # thread plumbing

    def _start(self) -> None:
        self._started = True
        self._thread.start()

    def _bootstrap(self) -> None:
        sim = self.sim
        # Wait for our first wakeup to be popped -- or for teardown, if the
        # simulation ended before we ever ran: then the program must not start.
        self._resume.acquire()
        try:
            if not sim._dead:
                self.result = self._fn(*self._args, **self._kwargs)
        except _Killed:
            pass
        except BaseException:  # noqa: BLE001 - report any failure to run()
            sim._fail(self, traceback.format_exc())
        finally:
            self.finished = True
            self.finish_time = sim.now
            if not self.daemon:
                sim._pending_nondaemon -= 1
            if not sim._dead:
                sim._dispatch(self)     # pass the baton on before we end

    def _site(self) -> str:
        """Where this process is blocked, for Deadlock and leak reports."""
        if self.parked:
            return f"{self.name} parked at {self.park_token!r}"
        return f"{self.name} blocked (no park site)"

    # ------------------------------------------------------------------ #
    # primitives (called from the process's own thread)

    @property
    def now(self) -> float:
        return self.sim.now

    def hold(self, dt: float) -> None:
        """Advance this process's virtual clock by ``dt`` seconds.

        Models local computation or fixed software overheads.  ``dt`` may be
        zero (a pure yield, which still gives deterministically-ordered
        scheduling to same-time events).  When this process's own wakeup is
        the next event, the call returns without an OS-thread switch.
        """
        if dt < 0:
            raise ValueError(f"negative hold: {dt}")
        sim = self.sim
        sim._schedule_wakeup(self, sim.now + dt)
        sim._dispatch(self)

    def park(self, token: Any = None) -> None:
        """Block until another process calls :meth:`Simulator.unpark` on us."""
        self.parked = True
        self.park_token = token
        self.sim._dispatch(self)


class _Killed(BaseException):
    """Internal: unwinds a process thread when the simulation is torn down."""


class Simulator:
    """Owns the event queue, the global virtual clock and the dispatch loop."""

    def __init__(self, schedule_seed: Optional[int] = None) -> None:
        self.now: float = 0.0
        self.schedule_seed = schedule_seed
        self._rng = (random.Random(schedule_seed)
                     if schedule_seed is not None else None)
        self._queue: list[tuple[float, int, float, int, Any]] = []
        self._seq = 0
        self._procs: list[Process] = []
        # run()'s baton: held (locked) while the dispatch loop is live on
        # some thread; released by whichever thread meets a stop condition
        self._main = allocate_lock()
        self._main.acquire()
        self._error: Optional[str] = None
        self._raised: Optional[BaseException] = None   # from a callback
        self._dead = False
        self._running = False
        self._current: Optional[Process] = None
        self._until: Optional[float] = None
        self._pending_nondaemon = 0
        self.events = 0            # events popped and dispatched
        # zero-arg callables returning a diagnostic string, appended to the
        # Deadlock message (the Network registers its mailbox/waiter report)
        self.diagnostics: list[Callable[[], str]] = []

    # ------------------------------------------------------------------ #
    # construction

    def add_process(self, name: str, fn: Callable[..., Any],
                    *args: Any, daemon: bool = False, **kwargs: Any) -> Process:
        """Register a simulated process.

        ``daemon`` processes (protocol servers) do not keep the simulation
        alive: once every non-daemon process has finished, :meth:`run`
        returns, and parked daemons are not a deadlock.
        """
        proc = Process(self, len(self._procs), name, fn, args, kwargs,
                       daemon=daemon)
        self._procs.append(proc)
        if not daemon:
            self._pending_nondaemon += 1
        self._schedule_wakeup(proc, self.now)
        if self._running and not proc._started:
            proc._start()
        return proc

    # ------------------------------------------------------------------ #
    # scheduling internals

    def _jitter(self) -> float:
        """Tie-break key between ``priority`` and ``seq``: 0.0 (FIFO) without
        a seed, seeded-random with one, so only same-``(time, priority)``
        events ever reorder."""
        return self._rng.random() if self._rng is not None else 0.0

    def _schedule_wakeup(self, proc: Process, at: float, priority: int = 0) -> None:
        self._seq += 1
        heapq.heappush(self._queue,
                       (at, priority, self._jitter(), self._seq, proc))

    def schedule_call(self, delay: float, fn: Callable[[], None],
                      priority: int = 0) -> None:
        """Run ``fn`` at ``now + delay`` with no process context: inline on
        whichever thread is dispatching then.  An exception it raises is
        re-raised, as is, by :meth:`run`."""
        self._seq += 1
        heapq.heappush(self._queue, (self.now + delay, priority,
                                     self._jitter(), self._seq, fn))

    def unpark(self, proc: Process, delay: float = 0.0, priority: int = 0) -> None:
        """Make a parked process runnable again at ``now + delay``."""
        if not proc.parked:
            raise SimError(f"unpark of non-parked process {proc.name}")
        proc.parked = False
        proc.park_token = None
        self._schedule_wakeup(proc, self.now + delay, priority)

    def _fail(self, proc: Process, tb: str) -> None:
        if self._error is None:
            self._error = f"process {proc.name!r} raised:\n{tb}"

    # ------------------------------------------------------------------ #
    # the dispatch loop

    def _dispatch(self, me: Optional[Process]) -> None:
        """Pop and dispatch events on the calling thread, which is giving up
        the CPU: ``me``'s own thread (blocking in hold/park, or finished), or
        :meth:`run`'s (``me`` is None).

        Callbacks run inline.  The loop ends at the first wakeup of a live
        process -- ``me``: return, no thread switch; another: release its
        baton and block on ours -- or at a stop condition (process error,
        callback exception, empty queue, no non-daemon left, ``until``
        passed), which releases :meth:`run`'s baton instead.
        """
        if self._dead:
            raise _Killed()     # a killed thread blocking again while it unwinds
        queue = self._queue
        until = self._until
        baton = self._main
        while self._error is None and queue and self._pending_nondaemon:
            at, _pri, _jit, _seq, target = heapq.heappop(queue)
            if until is not None and at > until:
                self.now = until
                break
            self.now = at
            self.events += 1
            if isinstance(target, Process):
                if target.finished:
                    continue
                self._current = target
                if target is me:
                    return
                baton = target._resume
                break
            self._current = None
            try:
                target()
            except BaseException as exc:  # noqa: BLE001 - re-raised by run()
                self._raised = exc
                break
        baton.release()
        if me is None:
            self._main.acquire()
        elif not me.finished:
            me._resume.acquire()
            if self._dead:
                raise _Killed()

    def run(self, until: Optional[float] = None) -> float:
        """Drive the simulation until all processes finish (or ``until``).

        Returns the final virtual time.  Raises :class:`SimError` if any
        process raised, whatever a :meth:`schedule_call` callback raised, and
        :class:`Deadlock` if live processes remain but no event can ever
        wake them.
        """
        self._running = True
        self._until = until
        for proc in self._procs:
            if not proc._started:
                proc._start()
        try:
            self._dispatch(None)    # returns once some thread has stopped the loop
            self._current = None
            if self._raised is not None:
                raise self._raised
            if self._error is not None:
                raise SimError(self._error)
            live = [p for p in self._procs if not p.finished and not p.daemon]
            if live and until is None:
                detail = (f"no events remain but {len(live)} process(es) "
                          f"still blocked: " + "; ".join(p._site() for p in live))
                for diag in self.diagnostics:
                    try:
                        detail += "\n" + diag()
                    except Exception as exc:  # noqa: BLE001 - best effort
                        detail += f"\n(diagnostic failed: {exc!r})"
                raise Deadlock(detail)
            return self.now
        finally:
            self._teardown()

    def _teardown(self) -> None:
        """Unblock every still-blocked thread so it unwinds and exits."""
        self._dead = True
        started = [p for p in self._procs if p._started]
        for proc in started:
            if not proc.finished:
                proc._resume.release()
        for proc in started:
            proc._thread.join(timeout=5.0)
            if proc._thread.is_alive():
                warnings.warn(
                    f"simulated process thread {proc._thread.name!r} still "
                    f"alive after teardown: {proc._site()}", ResourceWarning)

    # ------------------------------------------------------------------ #

    @property
    def current(self) -> Process:
        """The process currently executing (valid only from process context)."""
        cur = self._current
        if cur is None:
            raise SimError("no process is currently executing")
        return cur

"""Deterministic discrete-event engine: one event queue, two kinds of process body.

The engine implements classic process-oriented discrete-event simulation.
Every simulated process has a virtual clock and blocks on two primitives
only: *hold* ``dt`` (advance its clock) and *park* ``token`` (wait for
:meth:`Simulator.unpark`).  What kind of process it is follows from the
callable handed to :meth:`Simulator.add_process` -- nothing else selects it:

* a **generator function** is a *generator process*.  It owns no thread and
  no baton: it blocks by ``yield``-ing a *block request* -- ``(HOLD, dt)`` or
  ``(PARK, token)`` -- and whichever thread pops its wakeup steps it inline,
  with ``next()``, to its next ``yield``.  Every program in :mod:`repro` is
  written this way: the DSM request servers (an interrupt-style handler has
  no thread of its own), the compiled programs and the hand-coded ones.
* a **plain function** is a *thread process*.  It runs ordinary imperative
  Python on its own OS thread and blocks by calling :meth:`Process.hold` /
  :meth:`Process.park`.  Nothing in :mod:`repro` is one; it stays for
  plain-function programs written against the blocking forms.

**Exactly one thread executes at any instant.**  A thread process runs until
it gives up the CPU on a primitive (or returns), and the thread that is
giving up the CPU is the one that pops the next event, in
``(time, jitter, seq)`` order (:meth:`Simulator._dispatch`).  A
:meth:`Simulator.schedule_call` callback runs inline, with no current
process.  A generator process's wakeup is stepped inline, as the current
process, and the loop carries on -- no OS-thread switch.  A thread process's
wakeup ends the loop: if it is the dispatching thread's own it simply carries
on; if it is another's, the dispatcher releases that process's baton and
blocks on its own -- one OS-thread switch, counted in
:attr:`Simulator.switches`.  The thread that called :meth:`Simulator.run`
only starts the loop and waits for it to stop.  The ``seq`` tie-break makes
scheduling -- and therefore every result in the repository -- fully
deterministic, and because a step files its block request exactly where the
blocking primitive would have (same push, same ``seq``, same jitter draw),
the two kinds of body are interchangeable event for event.

Blocking code (the network, the DSM protocol and its synchronization, the
message-passing library) is written **once, as a generator of block
requests**: a generator process delegates to it with ``yield from``; a
thread process calls its *blocking form*, which :func:`blocking` builds
from the generator and which exhausts it with :meth:`Process.drive`,
performing each request in its blocking form.  A malformed request is
rejected the same way under both kinds: a ``ValueError`` thrown into the
body at the offending ``yield``.  A generator process that calls a blocking
form is an error (:class:`SimError`), never a hung dispatcher; so is a
thread process whose function returns a generator object instead of
running it.

Where an operation usually has nothing to wait for (a coherence check that
hits, a lock whose token never left), its one body is a plain function that
does the non-blocking part and returns ``None`` -- or, when something is
left, the generator that finishes it.  By convention such a function is
named ``*_steps`` and a generator function ``*_gen``; callers in generator
bodies write ``steps = op_steps(...)`` / ``if steps is not None: yield from
steps``, so the common case allocates no generator.

The ``jitter`` key is 0.0 unless the :class:`Simulator` is built with
``schedule_seed=N``: then it is seeded-random, permuting the pop order of
events that share a ``time``.  Same-time events are exactly the ones the
simulated platform leaves unordered (causally-ordered events always
differ in time because every message and every hold advances the clock), so
each seed explores a distinct *legal* interleaving of the same run — the
schedule fuzzer underneath ``python -m repro racecheck``.  ``None`` keeps
the historical FIFO order bit-for-bit.

Virtual time is a ``float`` in seconds.  Nothing in the engine depends on
wall-clock time; Python's execution speed never leaks into reported numbers.
"""

from __future__ import annotations

import heapq
import inspect
import os.path
import random
import threading
import traceback
import warnings
from _thread import allocate_lock
from typing import Any, Callable, Optional

__all__ = ["Simulator", "Process", "SimError", "Deadlock", "HOLD", "PARK",
           "blocking"]

#: block-request kinds: a generator body blocks with ``yield HOLD, dt`` or
#: ``yield PARK, token`` (compared by identity -- use these names)
HOLD = "hold"
PARK = "park"


class SimError(RuntimeError):
    """An error raised inside a simulated process, re-raised by :meth:`Simulator.run`."""


class Deadlock(RuntimeError):
    """Raised when every live process is parked and no events remain."""


class Process:
    """A simulated process: a cooperatively-scheduled body with a virtual clock.

    Application code never constructs these directly; use
    :meth:`Simulator.add_process`.  The public surface relevant to thread
    programs is :meth:`hold` (advance virtual time / model computation),
    :meth:`park` (block until another process calls
    :meth:`Simulator.unpark`), :meth:`drive` (run shared blocking code
    written as a generator) and the :attr:`now` property; a generator body
    yields ``(HOLD, dt)`` / ``(PARK, token)`` instead.
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
        self.finished = False
        self.finish_time: Optional[float] = None
        self.result: Any = None
        self.parked = False
        self.park_token: Any = None
        self._started = False
        # generator process: the suspended body (calling a generator
        # function runs none of it); stepped by Simulator._dispatch
        self._gen = None
        self._thread = None
        if inspect.isgeneratorfunction(fn):
            self._gen = fn(*args, **kwargs)
            return
        # thread process.  baton: a bare lock used as a binary semaphore,
        # held (locked) while the process must stay blocked; whoever pops
        # this process's wakeup releases it
        self._resume = allocate_lock()
        self._resume.acquire()
        self._thread = threading.Thread(
            target=self._bootstrap, name=f"simproc-{name}", daemon=True)

    # ------------------------------------------------------------------ #
    # thread plumbing

    def _start(self) -> None:
        self._started = True
        if self._thread is not None:
            self._thread.start()

    def _bootstrap(self) -> None:
        sim = self.sim
        # Wait for our first wakeup to be popped -- or for teardown, if the
        # simulation ended before we ever ran: then the program must not start.
        self._resume.acquire()
        try:
            if not sim._dead:
                result = self._fn(*self._args, **self._kwargs)
                if inspect.isgenerator(result):
                    result.close()
                    raise SimError(
                        f"thread process {self.name!r}: its function "
                        f"returned a generator object without running it "
                        f"-- pass the generator function itself to "
                        f"add_process (or delegate with `yield from`)")
                self.result = result
        except _Killed:
            pass
        except BaseException:  # noqa: BLE001 - report any failure to run()
            sim._fail(self, traceback.format_exc())
        finally:
            self._finish()
            if not sim._dead:
                sim._dispatch(self)     # pass the baton on before we end

    def _finish(self) -> None:
        self.finished = True
        self.finish_time = self.sim.now
        if not self.daemon:
            self.sim._pending_nondaemon -= 1

    def _site(self) -> str:
        """Where this process is blocked, for Deadlock and leak reports: the
        park token and, for a generator process, the path of function names
        down its ``yield from`` chain to the innermost suspended frame."""
        where = ""
        path = []
        gen = self._gen
        while getattr(gen, "gi_frame", None) is not None:
            frame = gen.gi_frame
            path.append(frame.f_code.co_name)
            gen = gen.gi_yieldfrom
        if path:
            where = (f" in {' > '.join(path)} "
                     f"({os.path.basename(frame.f_code.co_filename)}:"
                     f"{frame.f_lineno})")
        if self.parked:
            return f"{self.name} parked at {self.park_token!r}{where}"
        return f"{self.name} blocked{where or ' (no park site)'}"

    # ------------------------------------------------------------------ #
    # primitives (called from a thread process's own thread)

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
        if self._gen is not None:
            raise self._must_yield("hold")
        sim = self.sim
        sim._schedule_wakeup(self, sim.now + dt)
        sim._dispatch(self)

    def park(self, token: Any = None) -> None:
        """Block until another process calls :meth:`Simulator.unpark` on us."""
        if self._gen is not None:
            raise self._must_yield("park")
        self.parked = True
        self.park_token = token
        self.sim._dispatch(self)

    def _must_yield(self, what: str) -> SimError:
        return SimError(
            f"generator process {self.name!r} called the blocking {what}(): "
            f"it owns no thread to block -- yield the block request (or "
            f"`yield from` the generator form) instead")

    def drive(self, steps) -> Any:
        """Exhaust ``steps``, a generator of block requests, performing each
        request in its blocking form; returns the generator's return value.

        This is how a thread process runs blocking code that is written once
        for both kinds of process (a generator process delegates to the same
        generator with ``yield from``); :func:`blocking` wraps it.  A
        malformed request is thrown into ``steps`` at the offending
        ``yield``, as :meth:`Simulator._dispatch` does, and when the blocking
        primitive itself unwinds (teardown) ``steps`` is closed, so its
        ``finally`` blocks run when a generator process's would."""
        try:
            req = next(steps)
            while True:
                try:
                    kind, arg = req
                except (TypeError, ValueError):
                    kind = None
                if kind is HOLD and arg >= 0:
                    self.hold(arg)
                    req = next(steps)
                elif kind is PARK:
                    self.park(arg)
                    req = next(steps)
                else:
                    req = steps.throw(_bad_request(req))
        except StopIteration as stop:
            return stop.value
        except BaseException:
            steps.close()       # a no-op if it was ``steps`` that raised
            raise


def _bad_request(req) -> ValueError:
    return ValueError(f"bad block request {req!r}: expected (HOLD, dt >= 0) "
                      f"or (PARK, token)")


def blocking(op: Callable[..., Any]) -> Callable[..., Any]:
    """The blocking form, for thread processes, of an operation whose one
    body is a generator of block requests.

    ``op(owner, ...)`` is a generator function (``*_gen``) or a plain
    function returning the generator that finishes it, or ``None`` when
    nothing is left to wait for (``*_steps``); ``owner.proc`` is the
    :class:`Process` the operation runs on.  The result is ``op`` exhausted
    with :meth:`Process.drive` -- which raises :class:`SimError` when that
    process is a generator process.

    The adaptor is generated with ``op``'s own signature (as ``namedtuple``
    and ``dataclass`` generate theirs): forwarding through ``*args,
    **kwargs`` costs CPython 0.7 us a call, several times the bookkeeping of
    the operations a thread program calls most (a barrier, a page read)."""
    params = list(inspect.signature(op).parameters.values())
    if any(p.kind is not p.POSITIONAL_OR_KEYWORD for p in params):
        raise TypeError(f"blocking({op.__qualname__}): only plain "
                        f"parameters are forwarded")
    defaults = {p.name: p.default for p in params if p.default is not p.empty}
    name = op.__name__.removesuffix("_gen").removesuffix("_steps")
    declared = ", ".join(f"{p.name}=_defaults[{p.name!r}]"
                         if p.name in defaults else p.name for p in params)
    source = (f"def {name}({declared}):\n"
              f"    steps = _op({', '.join(p.name for p in params)})\n"
              f"    if steps is not None:\n"
              f"        return {params[0].name}.proc.drive(steps)\n")
    namespace = {"_op": op, "_defaults": defaults}
    exec(compile(source, f"<blocking {op.__qualname__}>", "exec"), namespace)
    call = namespace[name]
    call.__module__, call.__doc__ = op.__module__, op.__doc__
    return call


class _Killed(BaseException):
    """Internal: unwinds a process thread when the simulation is torn down."""


class Simulator:
    """Owns the event queue, the global virtual clock and the dispatch loop."""

    def __init__(self, schedule_seed: Optional[int] = None) -> None:
        self.now: float = 0.0
        self.schedule_seed = schedule_seed
        self._rng = (random.Random(schedule_seed)
                     if schedule_seed is not None else None)
        self._queue: list[tuple[float, float, int, Any]] = []
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
        self._pending_nondaemon = 0
        self.events = 0            # events popped and dispatched
        self.switches = 0          # OS-thread switches: batons handed over
        # zero-arg callables returning a diagnostic string, appended to the
        # Deadlock message (the Network registers its mailbox/waiter report)
        self.diagnostics: list[Callable[[], str]] = []

    # ------------------------------------------------------------------ #
    # construction

    def _refuse_reuse(self) -> None:
        if self._dead:
            raise SimError("Simulator instances are single-use: this one "
                           "has finished its run")

    def add_process(self, name: str, fn: Callable[..., Any],
                    *args: Any, daemon: bool = False, **kwargs: Any) -> Process:
        """Register a simulated process: a thread process if ``fn`` is a
        plain function, a generator process (no thread; stepped inline by
        whichever thread pops its wakeups) if it is a generator function.

        ``daemon`` processes (protocol servers) do not keep the simulation
        alive: once every non-daemon process has finished, :meth:`run`
        returns, and parked daemons are not a deadlock.
        """
        self._refuse_reuse()
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

    # Every push draws its tie-break key between ``time`` and ``seq`` as
    # ``rng.random() if rng is not None else 0.0``: 0.0 (FIFO) without a
    # seed, seeded-random with one, so only same-``time`` events ever
    # reorder.  The draw is inline at each push (the hot ones run per
    # event), always in push order.

    def _schedule_wakeup(self, proc: Process, at: float) -> None:
        self._seq += 1
        rng = self._rng
        heapq.heappush(self._queue, (
            at, rng.random() if rng is not None else 0.0, self._seq, proc))

    def schedule_call(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` at ``now + delay`` with no process context: inline on
        whichever thread is dispatching then.  An exception it raises is
        re-raised, as is, by :meth:`run`."""
        self._seq += 1
        rng = self._rng
        heapq.heappush(self._queue, (
            self.now + delay, rng.random() if rng is not None else 0.0,
            self._seq, fn))

    def unpark(self, proc: Process, delay: float = 0.0) -> None:
        """Make a parked process runnable again at ``now + delay``."""
        if not proc.parked:
            raise SimError(f"unpark of non-parked process {proc.name}")
        proc.parked = False
        proc.park_token = None
        self._schedule_wakeup(proc, self.now + delay)

    def _fail(self, proc: Process, tb: str) -> None:
        if self._error is None:
            self._error = f"process {proc.name!r} raised:\n{tb}"

    # ------------------------------------------------------------------ #
    # the dispatch loop

    def _dispatch(self, me: Optional[Process]) -> None:
        """Pop and dispatch events on the calling thread, which is giving up
        the CPU: ``me``'s own thread (blocking in hold/park, or finished), or
        :meth:`run`'s (``me`` is None).

        Callbacks run inline and generator processes are stepped inline: a
        step runs the body to its next ``yield`` and files the block request
        it yields exactly as the blocking primitive would.
        The loop ends at the first wakeup of a live thread process -- ``me``:
        return, no thread switch; another: release its baton and block on
        ours -- or at a stop condition (process error, callback exception,
        empty queue, no non-daemon left), which releases :meth:`run`'s
        baton instead.
        """
        if self._dead:
            raise _Killed()     # a killed thread blocking again while it unwinds
        queue = self._queue
        baton = self._main
        rng = self._rng
        pop, push = heapq.heappop, heapq.heappush
        while self._error is None and queue and self._pending_nondaemon:
            at, _jit, _seq, target = pop(queue)
            self.now = at
            self.events += 1
            if type(target) is Process:
                if target.finished:
                    continue
                self._current = target
                gen = target._gen
                if gen is not None:
                    try:
                        req = next(gen)
                        while True:
                            if type(req) is tuple and len(req) == 2:
                                kind, arg = req
                                if kind is HOLD:
                                    if arg >= 0:
                                        self._seq += 1
                                        push(queue, (
                                            self.now + arg,
                                            rng.random() if rng is not None
                                            else 0.0,
                                            self._seq, target))
                                        break
                                elif kind is PARK:
                                    target.parked = True
                                    target.park_token = arg
                                    break
                            # rejected at the yield, where a blocking
                            # hold(-1) would raise
                            req = gen.throw(_bad_request(req))
                    except StopIteration as stop:
                        target.result = stop.value
                        target._finish()
                    except BaseException:  # noqa: BLE001 - reported by run()
                        self._fail(target, traceback.format_exc())
                        target._finish()
                    continue
                if target is me:
                    return
                baton = target._resume
                self.switches += 1
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

    def run(self) -> float:
        """Drive the simulation until all processes finish.

        Returns the final virtual time.  Raises :class:`SimError` if any
        process raised, whatever a :meth:`schedule_call` callback raised, and
        :class:`Deadlock` if live processes remain but no event can ever
        wake them.  A simulator runs once: a finished one raises
        :class:`SimError` here and in :meth:`add_process`.
        """
        self._refuse_reuse()
        self._running = True
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
            if live:
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
        """Close every unfinished generator body (its ``finally`` blocks run;
        one never stepped runs nothing), unblock every still-blocked thread
        so it unwinds and exits, then end this simulator's lifetime: drop
        every reaped body, the event heap and the diagnostics, so the world
        they reference dies by reference count, not at some later GC pass."""
        self._dead = True
        for proc in self._procs:
            if proc._gen is not None and not proc.finished:
                try:
                    proc._gen.close()
                except Exception as exc:  # noqa: BLE001 - keep tearing down
                    warnings.warn(
                        f"generator process {proc.name!r} did not close "
                        f"cleanly at teardown: {exc!r}", ResourceWarning)
                proc._finish()
        started = [p for p in self._procs
                   if p._started and p._thread is not None]
        for proc in started:
            if not proc.finished:
                proc._resume.release()
        for proc in started:
            proc._thread.join(timeout=5.0)
            if proc._thread.is_alive():
                warnings.warn(
                    f"simulated process thread {proc._thread.name!r} still "
                    f"alive after teardown: {proc._site()}", ResourceWarning)
            else:
                proc._thread = None     # a survivor keeps its, for the report
        for proc in self._procs:
            proc._fn = proc._args = proc._kwargs = proc._gen = None
        self._procs.clear()
        self._queue.clear()
        self.diagnostics.clear()
        self._raised = None             # its traceback holds run()'s frame

    # ------------------------------------------------------------------ #

    @property
    def current(self) -> Process:
        """The process currently executing (valid only from process context)."""
        cur = self._current
        if cur is None:
            raise SimError("no process is currently executing")
        return cur

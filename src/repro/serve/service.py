"""`Service` — the one dispatch loop; `RunService` — the local worker pool.

The simulator steps one run's virtual processors as generator processes
on the calling thread, so a process can only retire one run at a time no
matter how many cores the host has.  Runs are embarrassingly
parallel at the *request* level, though, and every tier above the
in-process one is the same algorithm: admit requests to a
:class:`~repro.serve.scheduler.Backlog`, hand the oldest to whichever
:class:`Target` has room, stream results back **as they complete**, and
when a target dies decide what becomes of its unfinished requests.
:class:`Service` is that algorithm, written once: a single-threaded
``multiprocessing.connection.wait`` over every target's socket, each of
which speaks ``repro-serve/2`` (:mod:`repro.serve.wire`).
:class:`RunService` is the service whose targets are local worker
processes on socketpairs (:mod:`repro.serve.worker`);
:class:`~repro.serve.FleetService` the one whose targets are remote
``repro serve`` hosts on TCP.  A host's server is this loop too
(:meth:`Service.serve`), with its clients as more inputs of the wait.

Scheduling is parent-side pull: an assignment is recorded in the parent
*before* it is sent.  A socket per target — rather than one queue
shared by all writers — is what makes crash recovery airtight: a shared
``multiprocessing.Queue`` funnels every writer through one cross-process
write lock, and a worker hard-killed while holding it would poison the
queue for the whole pool.  A worker's socket has one writer per
direction, so a death can only sever that worker's own channel; the
parent observes EOF on it the moment the process is gone.

Failure surface (docs/API.md "Failure contract"; the e2e tests pin it):
a run that raises is a structured ``ok=False`` result from a live
worker; a hard worker death — EOF on its socket, or its process
sentinel for a corpse whose socket a grandchild holds — fails the one
request it was running as ``WorkerCrashed`` (never retried), a
replacement is spawned and the batch completes; a request whose *send*
failed never reached its worker, so it is requeued, not blamed.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing as mp
import socket
import sys
import threading
import time as _time
import warnings
from multiprocessing import connection as _mpc
from typing import Iterable, Optional

from repro.api.types import BatchResult, RunResult, failure_result
from repro.serve.scheduler import Backlog
from repro.serve.wire import WIRE_SCHEMA, JsonLines, Session
from repro.serve.worker import DEFAULT_RUNNER, worker_main

__all__ = ["Service", "Target", "RunService", "DEFAULT_WORKERS"]

DEFAULT_WORKERS = 4


class Target:
    """One peer that runs requests for a :class:`Service`: a connected
    socket whose far end serves ``repro-serve/2``.

    ``capacity`` is how many workers it has (its ``hello``'s ``workers``;
    1 until that arrives) and ``assigned`` the ids (backlog seqs) of the
    requests sent to it and not yet answered.  ``requeue`` is what its
    loss means for them: back to the head of the backlog for someone
    else, or — the default — failed as ``WorkerCrashed``.
    """

    #: unanswered requests per worker.  A pool worker holds exactly one: a
    #: second queued on it measured no ``serve_mix`` throughput gain and a
    #: slower start, and a worker's death would blame it as
    #: ``WorkerCrashed`` though it never started.
    depth = 1
    wid: Optional[int] = None        # a pool worker's id, for its results
    sentinel: Optional[int] = None   # a local process's exit handle

    def __init__(self, label: str, sock: Optional[socket.socket] = None,
                 capacity: int = 1, requeue: bool = False):
        self.label = label
        self.chan = JsonLines(sock) if sock is not None else None
        self.capacity = capacity
        self.requeue = requeue
        self.assigned: list = []
        self.runs = 0                  # results it returned
        self.requeues = 0              # requests requeued off it

    def close(self, timeout: Optional[float] = None) -> None:
        if self.chan is not None:
            self.chan.close()
            self.chan = None

    def lost(self) -> str:
        """The peer is gone: release our end, say what happened."""
        self.close()
        return f"{self.label} was lost"


class _Worker(Target):
    """A pool worker: a local process on the far end of a socketpair."""

    def __init__(self, wid: int, proc, sock: socket.socket):
        super().__init__(f"worker {wid}", sock)
        self.wid, self.proc, self.sentinel = wid, proc, proc.sentinel

    def close(self, timeout: Optional[float] = 1.0) -> None:
        self.proc.join(timeout)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(1.0)
        super().close()

    def lost(self) -> str:
        self.close()
        return f"worker {self.wid} died (exit code {self.proc.exitcode})"


class Service:
    """A :class:`Backlog` drained through :class:`Target` sockets by one
    single-threaded loop.  Subclasses build the targets, say what
    replaces a lost one (:meth:`_replace`), name the error that drains
    the backlog when none is left (``exhausted``) and shape ``stats()``.

    ``max_backlog`` caps admitted work — overflow comes back at once as
    structured ``error_kind="Rejected"`` results.  ``timeout`` is how
    long the loop waits in silence before it declares every busy target
    lost (``None``: forever).
    """

    exhausted = ("WorkerCrashed", "no live target remains")

    def __init__(self, targets: Iterable[Target] = (),
                 max_backlog: Optional[int] = None,
                 timeout: Optional[float] = None):
        self.timeout = timeout
        self._backlog = Backlog(max_backlog)
        self._targets = list(targets)     # the live ones
        self._done: list = []             # (key, result) not handed out yet
        self._crashes = 0
        self._last_loss = "none"
        self._closed = False
        self._relay = None                # (waker, stopped) while serving

    def _before_batch(self) -> None:
        """Called as a ``stream`` starts (the fleet re-probes here)."""

    def _replace(self, target: Target) -> None:
        """``target`` was lost: count it, list its stand-in if any."""
        self._crashes += 1

    # ------------------------------------------------------------------ #
    # the loop

    def _dispatch(self) -> None:
        """Send the oldest queued requests, one ``run`` line each with its
        backlog seq as ``id`` (assignment recorded before the send): first
        to every target with an idle worker, then up to each target's
        ``depth`` per worker."""
        for full in (False, True):
            for target in list(self._targets):
                room = target.capacity * (target.depth if full else 1)
                while self._backlog.queued and len(target.assigned) < room:
                    [(seq, (_key, doc))] = self._backlog.take()
                    target.assigned.append(seq)
                    try:
                        target.chan.send({"op": "run", "id": seq,
                                          "request": doc})
                    except OSError as exc:
                        # the target never saw this request: requeue it
                        # whatever its policy, never blame it
                        self._lose(target, f"send failed: {exc}", sent=False)
                        break

    def _absorb(self, target: Target, msg: dict) -> None:
        """Account one line from ``target``; a request it completes goes
        on ``_done``.  A line the protocol does not allow here (a
        ``result`` whose ``id`` is not an unanswered request of this
        target, an ``error``, a reply that does not decode) raises
        ``ConnectionError``: the caller declares the target lost."""
        op = msg.get("op")
        try:
            if op == "result":
                seq = msg.get("id")
                if type(seq) is not int or seq not in target.assigned:
                    raise ValueError(f"no request {seq!r} sent here awaits "
                                     f"a result")
                result = RunResult.from_json(msg["result"])
                target.assigned.remove(seq)
                item = self._backlog.retire(seq)   # None: the batch is over
                if item is not None:
                    target.runs += 1
                    self._done.append((item[0], result))
            elif op == "hello":
                if msg.get("schema") != WIRE_SCHEMA:
                    raise ValueError(f"unexpected wire schema: {msg}")
                target.capacity = max(1, int(msg.get("workers", 1)))
            else:
                raise ValueError(msg.get("message", msg))
        except Exception as exc:  # noqa: BLE001 — any reply that is not one
            raise ConnectionError(f"bad {op!r} line: {exc!r}") from exc

    def _lose(self, target: Target, why: str, sent: bool = True) -> None:
        """``target`` is dead: requeue or fail what it was running (the
        failures go on ``_done``), bring in its stand-in.  A request lost
        after one requeue fails as ``exhausted``."""
        self._targets.remove(target)
        seqs, target.assigned = target.assigned, []
        what = target.lost()
        self._last_loss = f"{what}: {why}"
        if target.requeue or not sent:
            before = self._backlog.requeues
            spent = self._backlog.requeue(seqs)
            target.requeues += self._backlog.requeues - before
            kind = self.exhausted[0]
            error = (f"{what} while running this request, which was "
                     f"already requeued once: {why}")
        else:
            spent = [item for item in map(self._backlog.retire, seqs)
                     if item is not None]
            kind, error = "WorkerCrashed", f"{what} while running this request"
        self._done += [(key, failure_result(doc, error, kind,
                                            worker=target.wid))
                       for key, doc in spent]
        self._replace(target)

    def _drain(self) -> None:
        """No live target remains: fail everything outstanding."""
        kind, what = self.exhausted
        self._done += [(key, failure_result(
            doc, f"{what} (last lost: {self._last_loss})", kind))
            for key, doc in self._backlog.drain()]

    def _wait(self, inputs: Iterable = ()) -> list:
        """Block until a target or one of ``inputs`` is ready; account
        what the targets said or that they died.  Returns the ready
        ``inputs``."""
        watched: dict = {}
        for target in self._targets:
            watched[target.chan.sock] = target
            if target.sentinel is not None:
                watched[target.sentinel] = target
        busy = [t for t in self._targets if t.assigned]
        ready = _mpc.wait([*watched, *inputs],
                          self.timeout if busy else None)
        if not ready:
            for target in busy:
                self._lose(target, f"no reply in {self.timeout} s")
        for target in dict.fromkeys(watched[obj] for obj in ready
                                    if obj in watched):
            try:
                if target.chan.sock not in ready:
                    raise ConnectionError("its process exited")
                try:
                    target.chan.fill()
                finally:
                    # what arrived whole before EOF or a garbled line
                    # counts: its requests must not be failed or rerun
                    while target.chan.inbox:
                        self._absorb(target, target.chan.inbox.popleft())
            except OSError as exc:
                self._lose(target, str(exc))
        return [obj for obj in ready if obj not in watched]

    def _ask(self, target: Target, op: str) -> dict:
        """One ``op`` round trip with ``target``; a result due before the
        reply is accounted on the way."""
        target.chan.send({"op": op})
        while True:
            msg = target.chan.recv()
            if msg.get("op") == op:
                return msg
            self._absorb(target, msg)

    # ------------------------------------------------------------------ #
    # the service surface: seven names, the same at pool and fleet

    def stream(self, requests: Iterable):
        """Yield ``(index, RunResult)`` in completion order.

        ``index`` is the request's position in this call's batch.
        Accepts :class:`RunRequest` objects or already-serialized docs.
        Single-consumer: one ``stream`` or :meth:`serve` at a time.  A
        consumer may stop early: what it abandons still runs, and those
        results are dropped as they arrive.

        Requests that will not run yield first, as structured failures:
        ``error_kind="BadRequest"`` for a doc that does not parse,
        ``"Rejected"`` for one over the ``max_backlog`` cap.  With no
        live target left, what is outstanding fails as ``exhausted``.
        """
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")
        self._before_batch()
        try:
            yield from self._backlog.admit_requests(enumerate(requests))
            while self._backlog.outstanding:
                self._dispatch()
                if not self._targets:
                    self._drain()
                elif not self._done:
                    self._wait()
                done, self._done = self._done, []
                yield from done
        finally:
            self._backlog.clear()
            self._done.clear()

    def run_batch(self, requests: Iterable) -> BatchResult:
        """Run a batch; return ordered results plus the counter deltas."""
        requests = list(requests)
        t0 = _time.perf_counter()
        before = self.counters()
        results: list = [None] * len(requests)
        for index, result in self.stream(requests):
            results[index] = result
        delta = {k: v - before[k] for k, v in self.counters().items()}
        return BatchResult(
            results=tuple(results),
            wall_s=round(_time.perf_counter() - t0, 6),
            workers=self.live_workers(),
            cache_hits=sum(1 for r in results if r.cache_hit),
            cache_misses=sum(1 for r in results if r.cache_hit is False),
            crashes=delta["crashes"],
            rejected=delta["rejections"])

    def counters(self) -> dict:
        """Snapshot of the monotonic scheduling counters (for deltas):
        ``crashes`` counts worker deaths at the pool level, host losses
        at the fleet level."""
        return {"crashes": self._crashes, **self._backlog.counters()}

    def live_workers(self) -> int:
        """Workers behind the live targets right now (not the configured
        size)."""
        return sum(t.capacity for t in self._targets)

    def close(self, timeout: float = 5.0) -> None:
        """Idempotent.  Stops a :meth:`serve` running on another thread,
        then tells every target ``bye`` before any is waited for, so local
        workers exit side by side; a remote service keeps running — a
        front going away must not take its hosts with it."""
        if self._closed:
            return
        self.stop_serving()
        self._closed = True
        for target in self._targets:
            try:
                target.chan.send({"op": "bye"})
            except OSError:
                pass                   # already gone: nothing to tell
        for target in self._targets:
            target.close(timeout)
        self._targets.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # the host side: wire clients as more inputs of the same loop

    def serve(self, session: Optional[Session] = None,
              listener: Optional[socket.socket] = None) -> str:
        """Relay ``repro-serve/2`` clients through this loop: a ``run``
        line is admitted under ``(client, id)``, its ``result`` sent back
        when it completes.  Serves ``session`` alone, or what ``listener``
        accepts, until that session ends, a ``shutdown`` or
        :meth:`stop_serving`; a client ends once it is read no further
        (``bye``, ``shutdown``, EOF) and its runs are answered."""
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")
        wake, waker = socket.socketpair()
        stopped = threading.Event()
        self._relay = (waker, stopped)
        sessions: list = []

        def greet(client: Session) -> None:
            client.send({"op": "hello", "schema": WIRE_SCHEMA,
                         "workers": self.workers})
            sessions.append(client)

        try:
            if session is not None:
                greet(session)
            while True:
                self._dispatch()
                if not self._targets:
                    self._drain()
                done, self._done = self._done, []
                for (client, ident), result in done:
                    client.pending -= 1
                    client.send({"op": "result", "id": ident,
                                 "result": result.to_json()})
                for client in [c for c in sessions
                               if c.ending and not c.pending]:
                    sessions.remove(client)
                    if client.ending != "eof":
                        client.send({"op": "bye"})
                    client.close()
                    if client is session or client.ending == "shutdown":
                        return client.ending
                inputs = [c for c in sessions if not c.ending] \
                    + [wake] + ([listener] if listener else [])
                for ready in self._wait(inputs):
                    if ready is wake:
                        return "stopped"
                    if ready is listener:
                        greet(Session.over(listener.accept()[0]))
                    else:
                        self._hear(ready)
        finally:
            for client in sessions:
                client.close()
            self._backlog.clear()
            self._done.clear()
            self._relay = None
            wake.close()
            waker.close()
            stopped.set()

    def stop_serving(self) -> None:
        """Stop a :meth:`serve` running on another thread; returns once it
        has.  A no-op when none is."""
        relay = self._relay               # None once the loop has ended
        if relay is not None:
            with contextlib.suppress(OSError):   # it is closing already
                relay[0].send(b"\0")
            relay[1].wait()

    def _hear(self, client: Session) -> None:
        """Act on what ``client`` sent, line by line, until it ends.  A
        line that is not what its op requires (bad JSON — bytes that are
        not UTF-8 read as U+FFFD — included) is answered with one
        ``error`` line naming what is wrong; the session stays up."""
        for line in client.read():
            if client.ending or line is None:     # None: its stream ended
                client.ending = client.ending or "eof"
                break
            try:
                msg = json.loads(line.decode("utf-8", errors="replace"))
                if not isinstance(msg, dict):
                    raise ValueError(f"a message is a JSON object with an "
                                     f"\"op\", not {type(msg).__name__}")
                op = msg.get("op")
                if op in ("bye", "shutdown"):
                    client.ending = op
                elif op == "stats":
                    client.send({"op": "stats", "stats": self.stats()})
                elif op == "run":
                    if "request" not in msg:
                        raise ValueError(
                            "run: missing \"request\" (a request doc)")
                    if not self._targets:
                        with contextlib.suppress(ConnectionError):
                            self._before_batch()
                    self._done += self._backlog.admit_requests(
                        [((client, msg.get("id")), msg["request"])])
                    client.pending += 1
                else:
                    raise ValueError(f"unknown op {op!r}")
            except Exception as exc:  # noqa: BLE001 — keep the session up
                client.send({"op": "error", "message": str(exc)})


class RunService(Service):
    """A persistent pool of local worker processes, each with
    its own compiled-program cache (repeated requests skip IR
    lowering/codegen, see :mod:`repro.api.execute`) and each taking the
    oldest queued request, one at a time.  A worker is forked when the
    pool starts it from a single-threaded process on Linux and spawned
    otherwise (:meth:`_spawn`).

    ``runner`` is a ``"module:attr"`` dotted path resolved inside each
    worker (tests inject failing/crashing runners through it); the
    default executes through :func:`repro.api.execute`.
    """

    def __init__(self, workers: int = DEFAULT_WORKERS,
                 runner: str = DEFAULT_RUNNER,
                 max_backlog: Optional[int] = None):
        if workers < 1:
            raise ValueError("RunService needs at least one worker")
        super().__init__(max_backlog=max_backlog)
        self.workers = workers
        self.runner = runner
        self._next_worker = 0
        for _ in range(workers):
            self._spawn()

    def _spawn(self) -> None:
        """Start one worker: forked when this is Linux and the process has
        one Python thread, spawned otherwise.  Fork skips the child's
        re-import of numpy and ``repro`` (docs/API.md has the numbers);
        forking while another thread runs can deadlock the child on a
        lock that thread held, so a respawn next to a
        :class:`~repro.serve.WireServer` thread spawns."""
        wid = self._next_worker
        self._next_worker += 1
        ours, theirs = socket.socketpair()
        fork = sys.platform == "linux" and threading.active_count() == 1
        proc = mp.get_context("fork" if fork else "spawn").Process(
            target=worker_main, args=(wid, theirs, self.runner),
            name=f"repro-serve-{wid}", daemon=True)
        try:
            if fork:
                with warnings.catch_warnings():
                    # Python 3.12 warns on any fork of a process with more
                    # than one OS thread, and numpy's OpenBLAS pool is one.
                    # The deadlock guard is the Python-thread count above;
                    # OpenBLAS quiesces its pool around a fork through its
                    # pthread_atfork handler.
                    warnings.filterwarnings(
                        "ignore", r"This process .* is multi-threaded",
                        DeprecationWarning)
                    proc.start()
            else:
                proc.start()
        finally:
            # the child has its own copy: with ours closed, a worker
            # death is EOF on our end instead of an eternally-open socket
            theirs.close()
        self._targets.append(_Worker(wid, proc, ours))

    def _replace(self, worker: Target) -> None:
        self._crashes += 1
        if not self._closed:
            self._spawn()

    def stats(self) -> dict:
        """Pool counters plus each live worker's cache counters, asked
        with the ``stats`` op (a busy worker answers once its run is
        done).  A worker found dead here is replaced and shows up in the
        next snapshot."""
        per_worker = {}
        for worker in list(self._targets):
            try:
                per_worker[str(worker.wid)] = \
                    self._ask(worker, "stats")["stats"]["cache"]
            except (OSError, LookupError) as exc:
                self._lose(worker, str(exc))
        return {
            "workers": len(self._targets),
            "crashes": self._crashes,
            "cache": {
                "hits": sum(s["hits"] for s in per_worker.values()),
                "misses": sum(s["misses"] for s in per_worker.values()),
                "per_worker": per_worker,
            },
            "scheduler": self._backlog.stats(),
        }

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
which speaks ``repro-serve/1`` (:mod:`repro.serve.wire`).
:class:`RunService` is the service whose targets are local worker
processes on socketpairs (:mod:`repro.serve.worker`);
:class:`~repro.serve.FleetService` the one whose targets are remote
``repro serve`` hosts on TCP.

Scheduling is parent-side pull: an assignment is recorded in the parent
*before* it is sent.  A socket per target — rather than one queue
shared by all writers — is what makes crash recovery airtight: a shared
``multiprocessing.Queue`` funnels every writer through one cross-process
write lock, and a worker hard-killed while holding it would poison the
queue for the whole pool.  A worker's socket has one writer per
direction, so a death can only sever that worker's own channel; the
parent observes EOF on it the moment the process is gone.

Failure surface — the contract the e2e tests pin:

* an exception inside a run returns a structured ``ok=False``
  :class:`~repro.api.RunResult` (``error``/``error_kind``), never kills
  the worker;
* a hard worker death (``os._exit``, segfault, OOM) is EOF on its socket
  (its process sentinel is watched too, for a corpse whose socket a
  grandchild still holds): the assigned request is failed with
  ``error_kind="WorkerCrashed"`` — a request that kills workers is never
  retried — the pool respawns a replacement, and the rest of the batch
  completes: a crash mid-batch is a result, not a hang;
* a request whose *send* failed never reached its worker: it goes back
  to the head of the queue and is not blamed.
"""

from __future__ import annotations

import multiprocessing as mp
import socket
import sys
import threading
import time as _time
import warnings
from multiprocessing import connection as _mpc
from typing import Callable, Iterable, Optional

from repro.api.types import BatchResult, RunResult, failure_result
from repro.serve.scheduler import Backlog
from repro.serve.wire import WIRE_SCHEMA, JsonLines
from repro.serve.worker import DEFAULT_RUNNER, worker_main

__all__ = ["Service", "Target", "RunService", "DEFAULT_WORKERS"]

DEFAULT_WORKERS = 4


class Target:
    """One peer that runs requests for a :class:`Service`: a connected
    socket whose far end serves ``repro-serve/1``.

    ``capacity`` is how many requests it takes at once (its ``hello``'s
    ``workers``; 1 until that arrives) and ``assigned`` the seqs of the
    chunk it has not finished answering.  ``requeue`` is what its loss
    means for them: back to the head of the backlog for someone else, or
    — the default — failed as ``WorkerCrashed``.
    """

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
        self._crashes = 0
        self._last_loss = "none"
        self._closed = False

    def _before_batch(self) -> None:
        """Called as a ``stream`` starts (the fleet re-probes here)."""

    def _replace(self, target: Target) -> None:
        """``target`` was lost: count it, list its stand-in if any."""
        self._crashes += 1

    # ------------------------------------------------------------------ #
    # the loop

    def _dispatch(self) -> None:
        """Every idle target takes up to its capacity of the oldest
        queued requests (assignment recorded before the send): one
        request as ``run`` (answered by one ``result``), more as
        ``batch`` (``result`` lines by chunk index, then ``batch-done``).
        """
        while self._backlog.queued:
            target = next((t for t in self._targets if not t.assigned),
                          None)
            if target is None:
                return
            chunk = self._backlog.take(target.capacity)
            target.assigned = [seq for seq, _item in chunk]
            docs = [doc for _seq, (_index, doc) in chunk]
            try:
                if len(docs) == 1:
                    target.chan.send({"op": "run", "request": docs[0]})
                else:
                    target.chan.send({"op": "batch", "requests": docs})
            except OSError as exc:
                # the target died before it ever saw these requests: put
                # them back at the head of the queue and declare the loss
                # now — failing them as WorkerCrashed would blame requests
                # the target never received; its stand-in is offered them
                self._backlog.requeue(target.assigned)
                target.assigned = []
                self._lose(target, f"send failed: {exc}")

    def _absorb(self, target: Target, msg: dict):
        """Account one line from ``target``; the ``(index, result)`` it
        completes, if any.  A line the protocol does not allow here
        raises (the caller declares the target lost)."""
        op = msg.get("op")
        if op == "result":
            result = RunResult.from_json(msg["result"])
            seq = target.assigned[msg["index"]]
            if len(target.assigned) == 1:      # a ``run``: reply complete
                target.assigned = []
            target.runs += 1
            item = self._backlog.retire(seq)   # None: stale, batch is over
            return None if item is None else (item[0], result)
        if op == "batch-done":
            target.assigned = []
        elif op == "hello":
            if msg.get("schema") != WIRE_SCHEMA:
                raise ConnectionError(f"unexpected wire schema: {msg}")
            target.capacity = max(1, int(msg.get("workers", 1)))
        else:
            raise ConnectionError(f"unexpected {op!r} line: "
                                  f"{msg.get('message', msg)}")
        return None

    def _lose(self, target: Target, why: str) -> list:
        """``target`` is dead: requeue or fail what it was running, bring
        in its stand-in.  Returns the ``[(index, result)]`` it failed."""
        self._targets.remove(target)
        seqs, target.assigned = target.assigned, []
        what = target.lost()
        self._last_loss = f"{what}: {why}"
        failed = []
        if target.requeue:
            target.requeues += self._backlog.requeue(seqs)
        else:
            for seq in seqs:
                item = self._backlog.retire(seq)
                if item is not None:
                    failed.append((item[0], failure_result(
                        item[1], f"{what} while running this request",
                        "WorkerCrashed", worker=target.wid)))
        self._replace(target)
        return failed

    def _wait(self) -> list:
        """Block until a target has said something or died; account it.
        Returns the ``[(index, result)]`` that completed, the failures of
        lost targets included."""
        watched: dict = {}
        for target in self._targets:
            watched[target.chan.sock] = target
            if target.sentinel is not None:
                watched[target.sentinel] = target
        ready = _mpc.wait(list(watched), self.timeout)
        out: list = []
        if not ready:
            for target in [t for t in self._targets if t.assigned]:
                out += self._lose(target, f"no reply in {self.timeout} s")
        for target in dict.fromkeys(watched[obj] for obj in ready):
            try:
                if target.chan.sock not in ready:
                    raise ConnectionError("its process exited")
                try:
                    target.chan.fill()
                finally:
                    # what arrived whole before EOF or a garbled line
                    # counts: its requests must not be failed or rerun
                    while target.chan.inbox:
                        done = self._absorb(target,
                                            target.chan.inbox.popleft())
                        if done is not None:
                            out.append(done)
            except (OSError, LookupError, TypeError, ValueError) as exc:
                out += self._lose(target, str(exc))
        return out

    def _ask(self, target: Target, op: str) -> dict:
        """Between batches: one ``op`` round trip with ``target``."""
        target.chan.send({"op": op})
        while True:
            msg = target.chan.recv()
            if msg.get("op") == op:
                return msg
            # its hello, or the tail of a batch whose consumer went away
            self._absorb(target, msg)

    # ------------------------------------------------------------------ #
    # the service surface: seven names, the same at pool and fleet

    def stream(self, requests: Iterable):
        """Yield ``(index, RunResult)`` in completion order.

        ``index`` is the request's position in this call's batch.
        Accepts :class:`RunRequest` objects or already-serialized docs.
        Single-consumer: concurrent ``stream`` calls must be serialized
        by the caller (the wire layer holds a lock around this).

        Requests that will not run yield first, as structured failures:
        ``error_kind="BadRequest"`` for a doc that does not parse,
        ``"Rejected"`` for one over the ``max_backlog`` cap.  With no
        live target left, what is outstanding fails as ``exhausted``.
        """
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")
        self._before_batch()
        try:
            yield from self._backlog.admit_requests(requests)
            while self._backlog.outstanding:
                self._dispatch()
                if not self._targets:
                    kind, what = self.exhausted
                    for index, doc in self._backlog.drain():
                        yield index, failure_result(
                            doc, f"{what} (last lost: {self._last_loss})",
                            kind)
                    return
                yield from self._wait()
        finally:
            self._backlog.clear()

    def run_batch(self, requests: Iterable,
                  on_result: Optional[Callable] = None) -> BatchResult:
        """Run a batch; return ordered results plus the counter deltas.

        ``on_result(index, result)`` is called per completion, in
        completion order (the wire ``batch`` op streams its ``result``
        lines from it).
        """
        requests = list(requests)
        t0 = _time.perf_counter()
        before = self.counters()
        results: list = [None] * len(requests)
        for index, result in self.stream(requests):
            results[index] = result
            if on_result is not None:
                on_result(index, result)
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
        """Idempotent.  Every target is told ``bye`` before any is waited
        for, so local workers exit side by side; a remote service keeps
        running — a front going away must not take its hosts with it."""
        if self._closed:
            return
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
        """Start one worker.  It is forked when this is Linux and the
        process has one Python thread, and spawned otherwise.

        Fork skips the child's re-import of numpy and ``repro``: a
        two-worker pool's start to its first two results takes 0.58 s
        spawned and 0.16 s forked, and serve_mix ``setup_s`` falls from
        1.53 to 1.10 s and ``peak_rss_mb`` from 90.0 to 84.1 MB (medians;
        2-vCPU host, Python 3.11.7).  Forking while another thread runs
        can deadlock the child on a lock that thread held, so a respawn
        on a ``repro serve --port`` handler thread (``_replace`` runs on
        whichever thread runs ``stream``) spawns.
        """
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
        with the ``stats`` op (so: between batches).  A worker found dead
        here is replaced and shows up in the next snapshot."""
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

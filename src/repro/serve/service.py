"""`RunService` — the persistent multi-process worker pool.

The simulator executes one run's virtual processors as parked Python
threads inside a single process, so a process can only retire one run at
a time no matter how many cores the host has.  Runs are embarrassingly
parallel at the *request* level, though: a :class:`RunService` keeps
``workers`` spawned processes alive across batches, hands each idle
worker the next queued :class:`~repro.api.RunRequest`, and streams
results back **as they complete**.  Each worker holds its own compiled-
program cache, so repeated requests skip IR lowering/codegen (see
:mod:`repro.api.execute`).

Scheduling is parent-side pull: every worker is connected by two simplex
pipes (tasks down, results up) and has at most one assigned request,
recorded in the parent *before* the task is sent.  Per-worker pipes —
rather than one queue shared by all writers — are what make crash
recovery airtight: a shared ``multiprocessing.Queue`` funnels every
writer through one cross-process write lock, and a worker hard-killed
while holding it would poison the queue for the whole pool.  A simplex
pipe has a single writer, so a death can only sever that worker's own
channel; the parent observes EOF on it the moment the process is gone.

Placement is FIFO: an idle worker gets the oldest queued request.  The
queue, ``max_backlog`` admission and the exactly-once bookkeeping are the
shared :class:`~repro.serve.scheduler.Backlog`; this module is the pipe
transport under it — spawn, send, receive, EOF, reap.

Failure surface — the contract the e2e tests pin:

* an exception inside a run returns a structured ``ok=False``
  :class:`~repro.api.RunResult` (``error``/``error_kind``), never kills
  the worker;
* a hard worker death (``os._exit``, segfault, OOM) is detected by EOF
  on its result pipe (with an ``is_alive`` poll as backstop): the
  assigned request is failed with ``error_kind="WorkerCrashed"``, the
  pool respawns a replacement (when ``respawn=True``, the default), and
  the rest of the batch completes — a crash mid-batch is a result, not
  a hang.

Use it as a context manager::

    with RunService(workers=4) as svc:
        for idx, res in svc.stream(requests):
            ...                       # completion order
        batch = svc.run_batch(requests)   # request order + counters
"""

from __future__ import annotations

import multiprocessing as mp
import time as _time
from multiprocessing import connection as _mpc
from typing import Callable, Iterable, Optional

from repro.api.types import BatchResult, RunResult, failure_result
from repro.serve.scheduler import Backlog
from repro.serve.worker import DEFAULT_RUNNER, worker_main

__all__ = ["RunService", "DEFAULT_WORKERS", "collect_batch"]

DEFAULT_WORKERS = 4

_POLL_S = 0.1      # fallback liveness-poll period (EOF is the fast path)


def collect_batch(service, requests: Iterable,
                  on_result: Optional[Callable] = None) -> BatchResult:
    """Stream ``requests`` through ``service`` (a pool or a fleet) and
    assemble the ordered :class:`BatchResult` with the counter deltas.

    ``on_result(index, result)`` is called per completion, in completion
    order (the wire ``batch`` op streams its ``result`` lines from it).
    """
    requests = list(requests)
    t0 = _time.perf_counter()
    before = service.counters()
    results: list = [None] * len(requests)
    for index, result in service.stream(requests):
        results[index] = result
        if on_result is not None:
            on_result(index, result)
    delta = {k: v - before[k] for k, v in service.counters().items()}
    return BatchResult(
        results=tuple(results),
        wall_s=round(_time.perf_counter() - t0, 6),
        workers=service.live_workers(),
        cache_hits=sum(1 for r in results if r.cache_hit),
        cache_misses=sum(1 for r in results if r.cache_hit is False),
        crashes=delta["crashes"],
        rejected=delta["rejections"])


class RunService:
    """A persistent pool of spawn-context worker processes.

    ``runner`` is a ``"module:attr"`` dotted path resolved inside each
    worker (tests inject failing/crashing runners through it); the
    default executes through :func:`repro.api.execute`.

    Each idle worker takes the oldest queued request, one at a time.
    ``max_backlog`` caps admitted work — overflow comes back at once as
    structured ``error_kind="Rejected"`` results.
    """

    def __init__(self, workers: int = DEFAULT_WORKERS,
                 runner: str = DEFAULT_RUNNER,
                 respawn: bool = True,
                 max_backlog: Optional[int] = None):
        if workers < 1:
            raise ValueError("RunService needs at least one worker")
        self.workers = workers
        self.runner = runner
        self.respawn = respawn
        self._backlog = Backlog(max_backlog)
        # spawn, never fork: the parent's simulator threads and locks
        # must not leak into a worker
        self._ctx = mp.get_context("spawn")
        self._procs: dict = {}           # worker_id -> Process
        self._task_conns: dict = {}      # worker_id -> parent write end
        self._result_conns: dict = {}    # worker_id -> parent read end
        self._assigned: dict = {}        # worker_id -> seq sent down its pipe
        self._cache_stats: dict = {}     # worker_id -> last-seen stats
        self._next_worker = 0
        self._crashes = 0
        self._closed = False
        for _ in range(workers):
            self._spawn()

    # ------------------------------------------------------------------ #
    # pool plumbing

    def _spawn(self) -> int:
        wid = self._next_worker
        self._next_worker += 1
        task_r, task_w = self._ctx.Pipe(duplex=False)
        result_r, result_w = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=worker_main,
            args=(wid, task_r, result_w, self.runner),
            name=f"repro-serve-{wid}", daemon=True)
        proc.start()
        # close the child's ends in the parent so a worker death turns
        # into EOF on our read end instead of an eternally-open pipe
        task_r.close()
        result_w.close()
        self._procs[wid] = proc
        self._task_conns[wid] = task_w
        self._result_conns[wid] = result_r
        return wid

    def _discard(self, wid: int) -> None:
        """Forget a dead worker's process and pipes."""
        self._procs.pop(wid, None)
        for conns in (self._task_conns, self._result_conns):
            conn = conns.pop(wid, None)
            if conn is not None:
                conn.close()

    def _dispatch(self) -> None:
        """Send every idle worker the oldest queued request (assignment
        recorded before the send)."""
        idle = [wid for wid in self._procs if wid not in self._assigned]
        for wid in idle:
            for seq, (_index, doc) in self._backlog.take():
                self._assigned[wid] = seq
                try:
                    self._task_conns[wid].send(("run", seq, doc))
                except (BrokenPipeError, OSError):
                    # the worker died before it ever saw this request:
                    # put it back at the head of the queue and reap the
                    # corpse now — waiting for the liveness poll would
                    # park the request on a dead worker for a whole poll
                    # period, and failing it as WorkerCrashed would
                    # blame a request the worker never received
                    del self._assigned[wid]
                    self._backlog.requeue([seq])
                    self._reap_worker(wid)        # respawns if enabled
                    return self._dispatch()       # offer the stand-in too

    def _reap_worker(self, wid: int) -> list:
        """One worker is dead: fail its assignment, respawn a stand-in.
        Returns the ``[(index, result)]`` it failed."""
        proc = self._procs.get(wid)
        if proc is not None:
            proc.join(timeout=1.0)
        self._discard(wid)
        self._crashes += 1
        item = self._backlog.retire(self._assigned.pop(wid, None))
        if self.respawn and not self._closed:
            self._spawn()
        if item is None:
            return []
        exitcode = proc.exitcode if proc is not None else None
        return [(item[0], failure_result(
            item[1],
            error=(f"worker {wid} died (exit code {exitcode}) "
                   "while running this request"),
            error_kind="WorkerCrashed", worker=wid))]

    def _reap(self) -> list:
        """Poll liveness (backstop to pipe EOF); fail dead assignments."""
        failed = []
        for wid, proc in list(self._procs.items()):
            if not proc.is_alive():
                failed.extend(self._reap_worker(wid))
        if not self._procs:
            # pool exhausted (respawn disabled): fail everything left
            failed.extend(
                (index, failure_result(
                    doc, error="no live workers remain in the pool",
                    error_kind="WorkerCrashed"))
                for index, doc in self._backlog.drain())
        return failed

    # ------------------------------------------------------------------ #
    # the service surface (FleetService presents the same seven names)

    def stream(self, requests: Iterable):
        """Yield ``(index, RunResult)`` in completion order.

        ``index`` is the request's position in this call's batch.
        Accepts :class:`RunRequest` objects or already-serialized docs.
        Single-consumer: concurrent ``stream`` calls must be serialized
        by the caller (the wire layer holds a lock around this).

        Requests that will not run yield first, as structured failures:
        ``error_kind="BadRequest"`` for a doc that does not parse,
        ``"Rejected"`` for one over the ``max_backlog`` cap.
        """
        if self._closed:
            raise RuntimeError("RunService is closed")
        try:
            yield from self._backlog.admit_requests(requests)
            self._dispatch()
            while self._backlog.outstanding:
                wid_of = {conn: wid
                          for wid, conn in self._result_conns.items()}
                ready = _mpc.wait(list(wid_of), timeout=_POLL_S) \
                    if wid_of else []
                failed = []
                for conn in ready:
                    wid = wid_of[conn]
                    try:
                        msg = conn.recv()
                    except (EOFError, OSError):
                        failed.extend(self._reap_worker(wid))
                        continue
                    _kind, _wid, seq, doc, cache_stats = msg
                    if self._assigned.get(wid) == seq:
                        del self._assigned[wid]
                    self._cache_stats[wid] = cache_stats
                    item = self._backlog.retire(seq)
                    if item is not None:
                        yield item[0], RunResult.from_json(doc)
                if not ready:
                    failed.extend(self._reap())
                yield from failed
                self._dispatch()
        finally:
            self._backlog.clear()

    def run_batch(self, requests: Iterable) -> BatchResult:
        """Run a batch; return ordered results plus service counters."""
        return collect_batch(self, requests)

    def counters(self) -> dict:
        """Snapshot of the monotonic scheduling counters (for deltas):
        ``crashes`` counts worker deaths at the pool level, host losses
        at the fleet level."""
        return {"crashes": self._crashes, **self._backlog.counters()}

    def live_workers(self) -> int:
        """Workers alive right now (not the configured pool size)."""
        return len(self._procs)

    def stats(self) -> dict:
        per_worker = {str(wid): stats
                      for wid, stats in sorted(self._cache_stats.items())}
        return {
            "workers": len(self._procs),
            "crashes": self._crashes,
            "cache": {
                "hits": sum(s["hits"] for s in per_worker.values()),
                "misses": sum(s["misses"] for s in per_worker.values()),
                "per_worker": per_worker,
            },
            "scheduler": self._backlog.stats(),
        }

    def close(self, timeout: float = 5.0) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in self._task_conns.values():
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        deadline = _time.monotonic() + timeout
        for proc in self._procs.values():
            proc.join(timeout=max(0.0, deadline - _time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        self._procs.clear()
        for conns in (self._task_conns, self._result_conns):
            for conn in conns.values():
                conn.close()
            conns.clear()

    def __enter__(self) -> "RunService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

"""The run-service worker process: one loop, one compiled-program cache.

Workers are plain ``multiprocessing`` processes (spawn context, so the
parent's simulator threads and locks never leak into a child).  Each
worker owns a :class:`~repro.api.execute.ProgramCache`; repeated requests
landing on the same worker skip IR lowering and codegen entirely.

Protocol with the parent (:class:`~repro.serve.service.RunService`) —
two simplex pipes per worker, never a shared queue:

* task pipe (parent writes, worker reads): ``("run", seq, request_doc)``
  or ``None`` (shutdown).  The parent assigns one task at a time and
  records the assignment on its side, so a worker that dies instantly
  can never take the identity of its in-flight request with it;
* result pipe (worker writes, parent reads): ``("done", worker_id, seq,
  result_doc, cache_stats)``.

Why pipes and not one shared result queue: a ``multiprocessing.Queue``
shared by many writers serializes them through a cross-process write
lock, and a worker hard-killed (``os._exit``, segfault, OOM) while its
feeder thread holds that lock poisons the queue for every surviving
writer — the pool would hang forever.  A simplex pipe has exactly one
writer, so a crash can only ever break that worker's own channel; the
parent sees EOF on it and turns the death into a structured
``WorkerCrashed`` result.

Exceptions raised by a run are converted to structured failure results
(``ok=False`` with the exception type and message) right here; only a
hard process death escapes, and the parent's liveness monitor handles
that.

``runner`` is a dotted path (``"module:attr"``) resolved inside the
worker — the default executes through :func:`repro.api.execute`; tests
inject crashing/failing runners the same way.
"""

from __future__ import annotations

import importlib
from typing import Optional

DEFAULT_RUNNER = "repro.serve.worker:default_runner"


def resolve_runner(path: str):
    """``"pkg.mod:attr"`` -> the callable it names."""
    module, sep, attr = path.partition(":")
    if not sep:
        raise ValueError(f"runner path {path!r} is not 'module:attr'")
    return getattr(importlib.import_module(module), attr)


def default_runner(request_doc: dict, cache):
    """Deserialize, execute through the unified API, serialize back."""
    from repro.api.execute import execute
    from repro.api.types import RunRequest

    request = RunRequest.from_json(request_doc)
    return execute(request, cache).to_json()


def worker_main(worker_id: int, task_conn, result_conn,
                runner_path: str = DEFAULT_RUNNER) -> None:
    """Entry point of one worker process (runs until shutdown)."""
    from repro.api.execute import ProgramCache

    runner = resolve_runner(runner_path)
    cache = ProgramCache()
    while True:
        try:
            item = task_conn.recv()
        except EOFError:       # parent went away: nothing left to serve
            break
        if item is None:
            break
        _kind, seq, request_doc = item
        doc = _run_one(runner, request_doc, cache, worker_id)
        result_conn.send(("done", worker_id, seq, doc, cache.stats()))


def _run_one(runner, request_doc: dict, cache,
             worker_id: Optional[int]) -> dict:
    try:
        doc = runner(request_doc, cache)
    except Exception as exc:   # noqa: BLE001 — structured, not fatal
        from repro.api.types import failure_result

        doc = failure_result(request_doc, error=str(exc),
                             error_kind=type(exc).__name__).to_json()
    doc["worker"] = worker_id
    return doc

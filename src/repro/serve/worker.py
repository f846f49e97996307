"""The run-service worker process: a one-worker ``repro-serve/1`` peer.

Workers are plain ``multiprocessing`` processes, one per socketpair
(why a socket each and never a shared queue:
:mod:`repro.serve.service`).  A worker is the in-process tier
(:class:`repro.api.InProcess` — one :class:`~repro.api.ProgramCache`,
so repeated requests landing on the same worker skip IR lowering and
codegen, and a run that raises becomes a structured ``ok=False`` result
right there) served on the worker's end of the socketpair by the same
:func:`~repro.serve.wire._serve_lines` loop that answers ``repro serve``
clients on stdio and TCP.  It greets with ``hello`` (``workers: 1``),
answers ``run`` and ``stats``, and exits on ``bye`` or when the parent's
end closes.  Only a hard process death escapes; the parent sees EOF on
its end and turns it into a structured ``WorkerCrashed`` result.

``runner`` is a dotted path (``"module:attr"``) resolved inside the
worker — the default executes through :func:`repro.api.execute`; tests
inject crashing/failing runners the same way.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import stat
import sys

from repro.api.execute import InProcess
from repro.serve.wire import serve_socket

DEFAULT_RUNNER = "repro.api.execute:default_runner"


def resolve_runner(path: str):
    """``"pkg.mod:attr"`` -> the callable it names."""
    module, sep, attr = path.partition(":")
    if not sep:
        raise ValueError(f"runner path {path!r} is not 'module:attr'")
    return getattr(importlib.import_module(module), attr)


def worker_main(worker_id: int, sock,
                runner_path: str = DEFAULT_RUNNER) -> None:
    """Entry point of one worker process (runs until ``bye`` or EOF).

    On Linux it first points every socket fd above stdio but its own at
    ``/dev/null``: a forked worker holds a copy of each socket its parent
    had open, and while it does the parent closing one is not EOF for the
    peer.  ``dup2``, not ``close``, so a stale socket object here can
    never close a reused descriptor number; pipes are left alone."""
    if sys.platform == "linux":
        null = os.open(os.devnull, os.O_RDWR)
        for fd in map(int, os.listdir("/proc/self/fd")):
            with contextlib.suppress(OSError):    # the listing's own fd
                if fd > 2 and fd not in (sock.fileno(), null) \
                        and stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(null, fd)
        os.close(null)
    with sock:
        serve_socket(InProcess(resolve_runner(runner_path), worker_id),
                     sock)

"""Injectable worker runners for the serve e2e tests, plus what the wire
tests share: a service with nothing behind it, a server on its own
thread, and raw wire sessions.

The runners must live in an importable module (not a test function):
the service resolves the runner from its ``"module:attr"`` dotted path
inside the worker, and a spawned worker (a pool started next to another
thread) imports it afresh.
The echo runner answers instantly, so crash/failure plumbing can be
tested without paying for real simulator runs.
"""

import contextlib
import json
import os
import socket
import time

from repro.api.types import RunRequest, RunResult
from repro.serve.service import Service
from repro.serve.wire import JsonLines, WireServer, serve_stdio


class Unserved(Service):
    """A service with no target behind it: a request that parses fails
    as ``Unserved``, one that does not as ``BadRequest``."""

    workers = 1
    exhausted = ("Unserved", "nothing runs behind this service")

    def stats(self) -> dict:
        return {"workers": 0, "cache": {"hits": 0, "misses": 0}}


@contextlib.contextmanager
def served(service):
    """A :class:`WireServer` over ``service``, serving on its own thread
    until the block ends."""
    server = WireServer(service)
    server.serve_in_thread()
    try:
        yield server
    finally:
        server.close()


@contextlib.contextmanager
def raw_wire(server, timeout: float = 10.0):
    """A plain ``repro-serve/2`` connection to a ``WireServer``:
    ``(channel, hello)``."""
    chan = JsonLines.connect(server.host, server.port, timeout)
    try:
        yield chan, chan.recv()
    finally:
        chan.close()


def wire_runs(chan, requests) -> list:
    """One ``run`` line per request (``id`` = its position), then its
    results, in request order: each answered once, by ``id``."""
    for i, r in enumerate(requests):
        chan.send({"op": "run", "id": i, "request":
                   r.to_json() if isinstance(r, RunRequest) else r})
    replies = sorted((chan.recv() for _ in requests),
                     key=lambda msg: msg["id"])
    assert [(msg["op"], msg["id"]) for msg in replies] \
        == [("result", i) for i in range(len(requests))]
    return [RunResult.from_json(msg["result"]) for msg in replies]


def serve_bytes(service, data: bytes) -> tuple:
    """Serve one session through :func:`serve_stdio` over a socketpair
    whose client end has sent ``data`` (up to the socket buffer, about
    200 KB), then EOF.  ``(verdict, reply objects)``."""
    ours, theirs = socket.socketpair()
    theirs.settimeout(10.0)              # data past the buffer: an error
    with ours, theirs, ours.makefile("w", encoding="utf-8") as out:
        theirs.sendall(data)
        theirs.shutdown(socket.SHUT_WR)
        verdict = serve_stdio(service, ours, out)
        ours.shutdown(socket.SHUT_WR)
        with theirs.makefile("rb") as replies:
            return verdict, [json.loads(line) for line in replies]


def echo_runner(request_doc, cache):
    """Answer every request instantly with a synthetic result.

    ``tag == "crash"``  -> hard process death (``os._exit``), the one
    failure mode that cannot be converted to a structured result inside
    the worker — exercises the parent's liveness monitor.
    ``tag == "fail"``   -> raises, exercising the structured-failure path.
    ``tag == "slow:S:..."`` -> sleeps ``S`` seconds first, so a test can
    kill a host while requests are verifiably in flight.
    """
    request = RunRequest.from_json(request_doc)
    if request.tag == "crash":
        os._exit(17)
    if request.tag == "fail":
        raise RuntimeError("injected failure")
    if request.tag and request.tag.startswith("slow:"):
        time.sleep(float(request.tag.split(":")[1]))
    cache.get(request.cache_key(), lambda: "compiled")
    return RunResult(app=request.app, variant=request.variant,
                     nprocs=request.nprocs, preset=request.preset,
                     time=1.0, seq_time=float(request.seq_time or 0.0),
                     tag=request.tag).to_json()

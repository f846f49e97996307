"""Injectable worker runners for the serve e2e tests, and a raw wire
session for the tests that check what a server sends.

The runners must live in an importable module (not a test function):
the service resolves the runner from its ``"module:attr"`` dotted path
inside the worker, and a spawned worker (a pool started next to another
thread) imports it afresh.
The echo runner answers instantly, so crash/failure plumbing can be
tested without paying for real simulator runs.
"""

import contextlib
import os
import time

from repro.api.types import RunRequest, RunResult
from repro.serve.wire import JsonLines


@contextlib.contextmanager
def raw_wire(server, timeout: float = 10.0):
    """A plain ``repro-serve/1`` connection to a ``WireServer``:
    ``(channel, hello)``."""
    chan = JsonLines.connect(server.host, server.port, timeout)
    try:
        yield chan, chan.recv()
    finally:
        chan.close()


def wire_batch(chan, requests) -> list:
    """Send one ``batch`` op on ``chan``; its reply lines, in order,
    through the ``batch-done`` (or ``error``) that ends them."""
    chan.send({"op": "batch", "requests": [
        r.to_json() if isinstance(r, RunRequest) else r for r in requests]})
    replies = [chan.recv()]
    while replies[-1]["op"] == "result":
        replies.append(chan.recv())
    return replies


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

"""Injectable worker runners for the serve e2e tests.

These must live in an importable module (not a test function): the
service resolves the runner from its ``"module:attr"`` dotted path
inside the worker, and a spawned worker (a pool started next to another
thread) imports it afresh.
The echo runner answers instantly, so crash/failure plumbing can be
tested without paying for real simulator runs.
"""

import os
import time

from repro.api.types import RunRequest, RunResult


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

"""The benchmark's own echo runner for the ``serve.*_echo_rtt_ms`` kernels.

``RunService`` resolves a runner from its ``"module:attr"`` path inside
each spawned worker, so this must be an importable module: ``run.py`` puts
``benchmarks/perf`` on the children's ``PYTHONPATH``.  The runner answers
at once with a synthetic result, so what the kernels time is the pool,
wire and fleet plumbing alone — spawn, dispatch, pipe and JSON.
"""

RUNNER = "echo:echo_runner"


def echo_runner(request_doc, cache):
    from repro.api.types import RunRequest, RunResult

    request = RunRequest.from_json(request_doc)
    cache.get(request.cache_key(), lambda: "compiled")
    return RunResult(app=request.app, variant=request.variant,
                     nprocs=request.nprocs, preset=request.preset,
                     time=1.0, seq_time=float(request.seq_time or 0.0),
                     tag=request.tag).to_json()

"""E2e tests of FIFO dispatch and admission control at the pool.

The contract under test (see docs/API.md "Scheduling"):

* placement never serializes a batch — every idle worker takes the
  oldest queued request, whatever its key;
* ``max_backlog`` refuses overflow requests immediately with structured
  ``error_kind="Rejected"`` results, and the verdict round-trips the
  JSON-lines wire protocol;
* a request doc that does not parse is one structured
  ``error_kind="BadRequest"`` result at its index — the rest of the
  batch runs and the service is untouched (pool and wire; the fleet
  twin lives in ``test_fleet.py``), and a wire request does not stall
  on Nagle x delayed-ACK;
* the parallel evaluation harnesses produce documents bit-identical to
  their serial twins (``repro sweep --jobs N`` contract), and a run that
  raises is the same structured failure in-process as through a pool —
  without the in-process tier importing ``repro.serve`` to say so.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.api import RunRequest
from repro.serve import RunService, WireClient
from tests.serve_helpers import raw_wire, serve_bytes, served, wire_runs

ECHO = "tests.serve_helpers:echo_runner"


def _req(app="jacobi", variant="spf", nprocs=2, tag=None):
    return RunRequest(app, variant, nprocs=nprocs, preset="test",
                      seq_time=1.0, tag=tag)


def test_identical_keys_use_every_worker():
    # six copies of ONE key through two workers: a scheduler that keeps a
    # key on the worker that compiled it would idle the other one away
    batch_requests = [_req(tag=f"r{i}") for i in range(6)]
    with RunService(workers=2, runner=ECHO) as svc:
        batch = svc.run_batch(batch_requests)
        assert batch.ok
        assert len({r.worker for r in batch.results}) == 2


def test_admission_control_rejects_overflow_structured():
    requests = [_req(tag=f"r{i}") for i in range(4)]
    with RunService(workers=1, runner=ECHO, max_backlog=2) as svc:
        batch = svc.run_batch(requests)
        assert not batch.ok and batch.runs == 4
        assert batch.rejected == 2
        verdicts = [r.error_kind for r in batch.results]
        assert verdicts.count("Rejected") == 2
        rejected = [r for r in batch.results if not r.ok]
        assert all("max_backlog" in r.error for r in rejected)
        # refusal is backpressure, not a failure: the pool keeps serving
        assert svc.run_batch(requests[:2]).ok
        assert svc.stats()["scheduler"]["rejections"] == 2


def test_rejection_round_trips_the_wire():
    with RunService(workers=1, runner=ECHO, max_backlog=2) as svc:
        # slow runs: all four lines arrive while the first two are
        # outstanding, so the cap refuses the last two
        with served(svc) as server, raw_wire(server) as (chan, _hello):
            results = wire_runs(chan, [_req(tag=f"slow:0.1:r{i}")
                                       for i in range(4)])
        assert sum(1 for r in results if r.error_kind == "Rejected") == 2
        assert svc.stats()["scheduler"]["rejections"] == 2


def test_bad_request_doc_is_one_structured_result_at_the_pool():
    good = _req(tag="ok").to_json()
    with RunService(workers=1, runner=ECHO) as svc:
        batch = svc.run_batch([good, {"app": "jacobi"}, good])
        assert [r.error_kind for r in batch.results] \
            == [None, "BadRequest", None]
        bad = batch.results[1]
        assert not bad.ok and bad.app == "jacobi" and "variant" in bad.error
        assert svc.run_batch([good, good]).ok


def test_bad_request_doc_over_the_wire_then_next_batch_ok():
    good = _req(tag="ok")
    with RunService(workers=1, runner=ECHO) as svc, served(svc) as server:
        with raw_wire(server) as (chan, _hello):
            results = wire_runs(chan, [good, {"app": "jacobi"}, good])
        assert [r.error_kind for r in results] == [None, "BadRequest", None]
        with WireClient(server.host, server.port) as client:
            assert client.run_batch([good, good]).ok
            assert client.run({"app": "jacobi"}).error_kind == "BadRequest"


@pytest.mark.parametrize("line,names", [
    ('{"op": "run"}', '"request"'),
    ('5', "JSON object"),
    ('{"op": "batch", "requests": []}', "unknown op 'batch'"),
])
def test_wire_input_errors_name_the_field(line, names):
    good = json.dumps({"op": "run", "request": _req(tag="ok").to_json()})
    with RunService(workers=1, runner=ECHO) as svc:
        verdict, replies = serve_bytes(svc, f"{line}\n{good}\n".encode())
    assert verdict == "eof"
    hello, error, result = replies
    assert hello["op"] == "hello"
    assert error["op"] == "error" and names in error["message"]
    # one error line, then the session carries on
    assert result["op"] == "result" and result["result"]["ok"]


def test_one_request_wire_batch_does_not_stall_on_nagle():
    # a `run` line out and its `result` line back are small segments;
    # without TCP_NODELAY on both sockets each waits ~40 ms for the
    # peer's delayed ACK
    with RunService(workers=1, runner=ECHO) as svc, served(svc) as server, \
            raw_wire(server) as (chan, _hello):
        walls = []
        for _ in range(9):
            t0 = time.perf_counter()
            [result] = wire_runs(chan, [_req()])
            walls.append(time.perf_counter() - t0)
            assert result.ok
        assert sorted(walls)[len(walls) // 2] < 0.020


def test_dead_worker_send_failure_requeues_not_fails():
    # kill the only worker behind the service's back: dispatch hits the
    # broken task pipe, and the failed send must requeue the request
    # (never blame it as WorkerCrashed — the worker never received it),
    # reap the corpse and respawn, so the batch still succeeds
    with RunService(workers=1, runner=ECHO) as svc:
        proc = svc._targets[0].proc
        proc.terminate()
        proc.join(timeout=5.0)
        batch = svc.run_batch([_req(tag="revived")])
        assert batch.ok and batch.results[0].ok
        assert batch.crashes == 1


def test_parallel_sweep_document_is_bit_identical():
    from repro.eval.sweep import run_sweep

    kwargs = dict(apps=["jacobi"], variants=["spf", "xhpf"],
                  nodes=(8, 16))
    serial = run_sweep(**kwargs)
    with RunService(workers=2) as svc:
        parallel = run_sweep(service=svc, **kwargs)
    assert json.dumps(serial) == json.dumps(parallel)
    assert serial["schema"] == "repro-sweep/3"


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_requests_failure_is_structured_at_every_tier(jobs):
    """igrid has no spf_opt recipe: ``execute`` raises ValueError, which
    ``run_requests`` reports (or re-raises) the same way in-process as
    the worker pool does, and the caller's pool stays open."""
    import contextlib

    from repro.eval.parallel import run_requests

    requests = [RunRequest("igrid", "spf_opt", preset="test"), _req()]
    with (RunService(workers=jobs) if jobs > 1       # as --jobs picks
          else contextlib.nullcontext()) as svc:
        bad, good = run_requests(requests, svc, raise_on_error=False)
        assert not bad.ok and bad.error_kind == "ValueError"
        assert (bad.app, bad.variant) == ("igrid", "spf_opt")
        assert good.ok
        with pytest.raises(RuntimeError, match="igrid/spf_opt.*ValueError"):
            run_requests(requests, svc)
        assert run_requests([_req()], svc)[0].ok


def test_in_process_failure_does_not_import_the_service_tier():
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = (
        "import sys\n"
        "from repro.api import RunRequest\n"
        "from repro.eval.parallel import run_requests\n"
        "(bad,) = run_requests([RunRequest('igrid', 'spf_opt', "
        "preset='test')], raise_on_error=False)\n"
        "assert bad.error_kind == 'ValueError', bad\n"
        "print(sorted(m for m in sys.modules "
        "if m.startswith('repro.serve')))")
    out = subprocess.run([sys.executable, "-c", code],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True,
                         timeout=60)
    assert out.stdout.strip() == "[]"

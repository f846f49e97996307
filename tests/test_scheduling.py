"""E2e tests of the cache-affine scheduler and admission control.

The contract under test (see docs/API.md "Scheduling"):

* a repeat ``cache_key`` routes back to the worker that already
  compiled it (``affinity_hits`` counts it, and the result's ``worker``
  field proves the landing spot);
* affinity never serializes a batch — an idle worker steals the oldest
  backlog entry once the queue reaches ``steal_threshold``;
* ``max_backlog`` refuses overflow requests immediately with structured
  ``error_kind="Rejected"`` results, and the verdict round-trips the
  JSON-lines wire protocol (``BatchResult.rejected``);
* a request doc that does not parse is one structured
  ``error_kind="BadRequest"`` result at its index — the rest of the
  batch runs and the service is untouched (pool and wire; the fleet
  twin lives in ``test_fleet.py``), and a one-request wire batch does
  not stall on Nagle x delayed-ACK;
* ``BatchResult.workers`` reports *live* workers, not the configured
  pool size, after a crash with ``respawn=False``;
* the parallel evaluation harnesses produce documents bit-identical to
  their serial twins (``repro sweep --jobs N`` contract), and a run that
  raises is the same structured failure in-process as through a pool.
"""

import time

import pytest

from repro.api import RunRequest
from repro.serve import RunService, WireClient, WireServer

ECHO = "tests.serve_helpers:echo_runner"


def _req(app="jacobi", variant="spf", nprocs=2, tag=None):
    return RunRequest(app, variant, nprocs=nprocs, preset="test",
                      seq_time=1.0, tag=tag)


def test_repeat_keys_route_to_their_warm_worker():
    a, b = _req(app="jacobi"), _req(app="mgs")
    with RunService(workers=2, runner=ECHO) as svc:
        warm = svc.run_batch([a, b])
        assert warm.ok and warm.affinity_hits == 0
        home = {r.app: r.worker for r in warm.results}
        again = svc.run_batch([a, b])
        assert again.ok
        # both repeat keys landed on the worker that compiled them
        assert {r.app: r.worker for r in again.results} == home
        assert again.affinity_hits == 2
        stats = svc.stats()["scheduler"]
        assert stats["affinity_hits"] == 2
        labels = [k for keys in stats["warm_keys"].values() for k in keys]
        assert any(lbl.startswith("jacobi:spf:test:") for lbl in labels)


def test_affinity_never_serializes_a_batch():
    # six copies of ONE key through two workers: only one worker is ever
    # warm, so without stealing the other would idle the batch away
    batch_requests = [_req(tag=f"r{i}") for i in range(6)]
    with RunService(workers=2, runner=ECHO) as svc:
        batch = svc.run_batch(batch_requests)
        assert batch.ok
        assert batch.steals >= 1            # the cold worker took work
        assert batch.affinity_hits >= 1     # the warm worker kept some
        assert len({r.worker for r in batch.results}) == 2
        assert svc.stats()["scheduler"]["steals"] == batch.steals


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
        server = WireServer(svc)
        server.serve_in_thread()
        try:
            with WireClient(server.host, server.port) as client:
                events = list(client.stream_batch(
                    [_req(tag=f"r{i}") for i in range(4)]))
                results = [p for k, _i, p in events if k == "result"]
                assert len(results) == 4
                batch = events[-1][2]
                assert batch.rejected == 2 and not batch.ok
                assert sum(1 for r in results
                           if r.error_kind == "Rejected") == 2
                assert client.stats()["scheduler"]["rejections"] == 2
        finally:
            server.close()


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
    with RunService(workers=1, runner=ECHO) as svc:
        server = WireServer(svc)
        server.serve_in_thread()
        try:
            with WireClient(server.host, server.port) as client:
                events = list(client.stream_batch(
                    [good, {"app": "jacobi"}, good]))
                kinds = [k for k, _i, _p in events]
                assert kinds == ["result"] * 3 + ["batch"]
                batch = events[-1][2]
                assert [r.error_kind for r in batch.results] \
                    == [None, "BadRequest", None]
                assert client.run_batch([good, good]).ok
                assert client.run({"app": "jacobi"}).error_kind \
                    == "BadRequest"
        finally:
            server.close()


def test_one_request_wire_batch_does_not_stall_on_nagle():
    # `result` then `batch-done` are two small flushed segments; without
    # TCP_NODELAY on both sockets every batch waits ~40 ms for the
    # peer's delayed ACK
    with RunService(workers=1, runner=ECHO) as svc:
        server = WireServer(svc)
        server.serve_in_thread()
        try:
            with WireClient(server.host, server.port) as client:
                walls = []
                for _ in range(9):
                    t0 = time.perf_counter()
                    events = list(client.stream_batch([_req()]))
                    walls.append(time.perf_counter() - t0)
                    assert events[-1][2].ok
                assert sorted(walls)[len(walls) // 2] < 0.020
        finally:
            server.close()


def test_batch_reports_live_workers_after_unreplaced_crash():
    with RunService(workers=2, runner=ECHO, respawn=False) as svc:
        before = svc.run_batch([_req(tag="warm")])
        assert before.workers == 2
        batch = svc.run_batch([_req(tag="crash"), _req(tag="ok")])
        assert batch.crashes == 1
        assert batch.workers == 1      # live count, not configured size
        after = svc.run_batch([_req(tag="still-serving")])
        assert after.ok and after.workers == 1


def test_dead_worker_send_failure_requeues_not_fails():
    # kill the only worker behind the service's back: dispatch hits the
    # broken task pipe, and the failed send must requeue the request
    # (never blame it as WorkerCrashed — the worker never received it),
    # reap the corpse and respawn, so the batch still succeeds
    with RunService(workers=1, runner=ECHO) as svc:
        proc = next(iter(svc._procs.values()))
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
    parallel = run_sweep(jobs=2, **kwargs)
    assert serial == parallel
    assert serial["schema"] == "repro-sweep/3"


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_requests_failure_is_structured_at_every_tier(jobs):
    """igrid has no spf_opt recipe: ``execute`` raises ValueError, which
    ``run_requests`` reports (or re-raises) the same way in-process as
    the worker pool does."""
    from repro.eval.parallel import run_requests

    requests = [RunRequest("igrid", "spf_opt", preset="test"), _req()]
    bad, good = run_requests(requests, jobs=jobs, raise_on_error=False)
    assert not bad.ok and bad.error_kind == "ValueError"
    assert (bad.app, bad.variant) == ("igrid", "spf_opt")
    assert good.ok
    with pytest.raises(RuntimeError, match="igrid/spf_opt.*ValueError"):
        run_requests(requests, jobs=jobs)

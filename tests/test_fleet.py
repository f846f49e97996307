"""Fleet-tier tests: FIFO host dispatch, admission control, and
failover (kill a host mid-batch) with the exactly-once result contract.

Two layers:

* **in-process hosts** — two :class:`~repro.serve.RunService` pools
  behind :class:`~repro.serve.WireServer`, echo runner: scheduling,
  counters, stats, the stdio wire front (``python -m repro fleet``);
* **subprocess hosts** — two real ``repro serve --port 0`` processes;
  one is killed while requests are verifiably in flight, and the fleet
  must still deliver exactly one result per request, bit-identical to a
  serial run, with the loss and the requeues on ``stats()["fleet"]``.
"""

import os
import re
import subprocess
import sys
import threading

import pytest

from repro.api import RunRequest, RunResult
from repro.serve import (FleetService, RunService, WireServer, parse_host,
                         serve_stdio)

ECHO = "tests.serve_helpers:echo_runner"

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _reqs(n=12):
    apps = ("jacobi", "mgs")
    return [RunRequest(apps[i % 2], "spf", nprocs=2, preset="test",
                       seq_time=1.0, tag=f"r{i}") for i in range(n)]


def _expected(request):
    """What the echo runner answers for ``request`` (deterministic)."""
    return RunResult(app=request.app, variant=request.variant,
                     nprocs=request.nprocs, preset=request.preset,
                     time=1.0, seq_time=float(request.seq_time or 0.0),
                     tag=request.tag)


# ---------------------------------------------------------------------- #
# in-process hosts

@pytest.fixture(scope="module")
def cluster():
    svcs = [RunService(workers=2, runner=ECHO) for _ in range(2)]
    servers = [WireServer(svc) for svc in svcs]
    for server in servers:
        server.serve_in_thread()
    yield [f"{server.host}:{server.port}" for server in servers]
    for server in servers:
        server.close()
    for svc in svcs:
        svc.close()


@pytest.fixture(scope="module")
def fleet(cluster):
    with FleetService(cluster) as f:
        yield f


def test_parse_host():
    assert parse_host("10.0.0.1:7590") == ("10.0.0.1", 7590)
    assert parse_host(("h", 1)) == ("h", 1)
    for bad in ("nohost", "h:", ":7", "h:seven"):
        with pytest.raises(ValueError):
            parse_host(bad)


def test_batch_ordered_ok_and_bit_identical(fleet):
    requests = _reqs()
    batch = fleet.run_batch(requests)
    assert batch.ok and batch.runs == len(requests)
    assert batch.workers == fleet.live_workers() > 0
    assert [r.canonical_bytes() for r in batch.results] \
        == [_expected(r).canonical_bytes() for r in requests]
    assert batch.crashes == 0


def test_identical_keys_use_every_host(cluster):
    # the pool's test_identical_keys_use_every_worker, one tier up: six
    # slow copies of ONE key, so neither host can drain the backlog
    # before the other's thread has taken its first chunk
    requests = [RunRequest("jacobi", "spf", nprocs=2, preset="test",
                           seq_time=1.0, tag=f"slow:0.05:r{i}")
                for i in range(6)]
    with FleetService(cluster) as fleet:
        assert fleet.run_batch(requests).ok
        hosts = fleet.stats()["fleet"]["hosts"]
    assert len(hosts) == 2 and all(h["runs"] > 0 for h in hosts.values())


def test_stream_yields_every_index_exactly_once(fleet):
    requests = _reqs(8)
    seen = {}
    for index, result in fleet.stream(requests):
        assert index not in seen
        seen[index] = result
    assert sorted(seen) == list(range(len(requests)))
    assert all(r.ok for r in seen.values())


def test_fleet_stream_starts_no_thread(fleet):
    # hosts are sockets in the one dispatch loop, not a thread each
    for _index, result in fleet.stream(_reqs(6)):
        assert result.ok
        assert not [t.name for t in threading.enumerate()
                    if t.name.startswith("repro-fleet")]


def test_stats_shape_and_probe(fleet):
    stats = fleet.stats()
    assert stats["workers"] == fleet.live_workers()
    fl = stats["fleet"]
    assert sorted(fl) == ["hosts", "hosts_lost", "live_hosts", "max_backlog",
                          "rejections", "requeues", "retries"]
    assert all(sorted(h) == ["alive", "last_rtt_ms", "reconnects",
                             "requeues", "runs", "workers"]
               for h in fl["hosts"].values())
    assert fl["live_hosts"] == 2
    health = fleet.probe()
    assert all(h["alive"] for h in health.values())
    assert all(h["last_rtt_ms"] is not None for h in health.values())


def test_admission_control_rejects_overflow(cluster):
    with FleetService(cluster, max_backlog=1) as fleet:
        batch = fleet.run_batch(_reqs(4))
    assert not batch.ok
    verdicts = [r.error_kind for r in batch.results]
    assert verdicts.count("Rejected") == 3      # one admitted, rest refused
    assert batch.rejected == 3
    rejected = [r for r in batch.results if r.error_kind == "Rejected"]
    assert all("max_backlog" in r.error for r in rejected)


def test_bad_request_doc_does_not_poison_the_fleet(cluster):
    good = _reqs(2)
    with FleetService(cluster) as fleet:
        batch = fleet.run_batch([good[0], {"app": "jacobi"}])
        assert [r.error_kind for r in batch.results] == [None, "BadRequest"]
        assert not batch.results[1].ok and batch.results[1].app == "jacobi"
        # no per-batch state outlives the batch: the next one is clean
        again = fleet.run_batch(good)
        assert again.ok and again.runs == 2
        assert [r.tag for r in again.results] == ["r0", "r1"]


def test_no_reachable_host_raises():
    import socket
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    with pytest.raises(ConnectionError, match="no fleet host reachable"):
        FleetService([f"127.0.0.1:{port}"], retries=0)


def test_fleet_behind_stdio_wire(fleet):
    """The `python -m repro fleet` front: the wire layer dispatches
    against FleetService exactly as it does against RunService."""
    import io
    import json

    requests = _reqs(4)
    lines = [json.dumps({"op": "batch", "id": "b1",
                         "requests": [r.to_json() for r in requests]}),
             json.dumps({"op": "stats"}),
             json.dumps({"op": "bye"})]
    out = io.StringIO()
    verdict = serve_stdio(fleet, io.StringIO("\n".join(lines) + "\n"), out)
    assert verdict == "bye"
    msgs = [json.loads(line) for line in out.getvalue().splitlines()]
    assert msgs[0]["op"] == "hello"
    results = [m for m in msgs if m["op"] == "result"]
    assert sorted(m["index"] for m in results) == list(range(4))
    done = [m for m in msgs if m["op"] == "batch-done"]
    assert len(done) == 1 and done[0]["batch"]["ok"]
    stats = [m for m in msgs if m["op"] == "stats"]
    assert stats and "fleet" in stats[0]["stats"]


# ---------------------------------------------------------------------- #
# subprocess hosts: failover mid-batch

def _spawn_serve_host():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src"), REPO_ROOT]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2", "--runner", ECHO],
        cwd=REPO_ROOT, env=env, text=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    got = []
    reader = threading.Thread(
        target=lambda: got.append(proc.stderr.readline()), daemon=True)
    reader.start()
    reader.join(timeout=120.0)
    if not got or "listening on" not in got[0]:
        proc.kill()
        proc.wait(timeout=30.0)
        proc.stderr.close()
        raise RuntimeError(f"serve host did not come up: {got}")
    match = re.search(r"listening on ([\d.]+):(\d+)", got[0])
    return proc, f"{match.group(1)}:{match.group(2)}"


def test_host_killed_mid_batch_requeues_and_completes():
    proc_a, spec_a = _spawn_serve_host()
    proc_b, spec_b = _spawn_serve_host()
    try:
        # one fast request, the rest slow: when the fast result arrives,
        # both hosts verifiably hold slow requests in flight — killing a
        # host then *must* exercise the requeue path
        requests = [RunRequest("jacobi", "spf", nprocs=2, preset="test",
                               seq_time=1.0, tag="slow:0.01:r0")]
        requests += [RunRequest("jacobi", "spf", nprocs=2, preset="test",
                                seq_time=1.0, tag=f"slow:0.4:r{i}")
                     for i in range(1, 12)]
        with FleetService([spec_a, spec_b], retries=1) as fleet:
            seen = {}
            killed = False
            for index, result in fleet.stream(requests):
                if not killed:
                    proc_a.kill()
                    proc_a.wait(timeout=30.0)
                    killed = True
                assert index not in seen     # exactly once, never twice
                seen[index] = result
            assert sorted(seen) == list(range(len(requests)))
            assert all(r.ok for r in seen.values()), \
                [r.error for r in seen.values() if not r.ok]
            # bit-identical to a serial run of the same requests
            assert [seen[i].canonical_bytes()
                    for i in range(len(requests))] \
                == [_expected(r).canonical_bytes() for r in requests]
            stats = fleet.stats()["fleet"]
            assert stats["hosts_lost"] == 1
            assert stats["requeues"] >= 1
            assert stats["live_hosts"] == 1
            # the survivor keeps serving after the loss, and a batch
            # reports the live workers (one host's two), not the four
            # the fleet started with
            after = fleet.run_batch(requests[:2])
            assert after.ok and after.workers == 2
    finally:
        for proc in (proc_a, proc_b):
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30.0)
            proc.stderr.close()

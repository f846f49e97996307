"""End-to-end tests of the repro.serve worker-pool service.

The contract under test (see docs/API.md):

* a mixed batch through the service returns results **bit-identical**
  (``RunResult.canonical_bytes()``) to direct in-process ``execute``
  calls;
* the per-worker compiled-program caches work and their hit/miss
  counters surface through ``RunResult.cache_hit`` and the batch/service
  counters;
* a worker that raises returns a structured ``ok=False`` result; a
  worker that *dies* mid-batch surfaces exactly one structured
  ``WorkerCrashed`` result, for the request it was running, and the
  batch still completes — never a hang;
* a consumer that stops reading a stream leaves the service usable: the
  next batch gets exactly its own results (pool and wire);
* a worker is forked when the pool starts it from a single-threaded
  process on Linux, spawned otherwise, and either way a worker's death is
  EOF on the parent's end and the parent closing its end is EOF on the
  worker's, and a forked worker keeps no other socket of its parent;
* the JSON-lines wire protocol (TCP) round-trips requests and streamed
  results, one ``result`` line per ``run`` line, by ``id``.
"""

import _thread
import collections
import contextlib
import multiprocessing
import socket
import sys
import threading
import time
import warnings

import pytest

from repro.api import ProgramCache, RunRequest, execute
from repro.serve import WIRE_SCHEMA, RunService, WireClient
from tests.serve_helpers import raw_wire, served, wire_runs

#: tiny standard-preset mix: two DSM variants, one MP, one sequential
REQUESTS = [
    RunRequest("jacobi", "spf", nprocs=2, preset="test", seq_time=1.0),
    RunRequest("jacobi", "tmk", nprocs=2, preset="test", seq_time=1.0),
    RunRequest("jacobi", "spf", nprocs=2, preset="test", seq_time=1.0),
    RunRequest("mgs", "seq", nprocs=1, preset="test"),
]

ECHO = "tests.serve_helpers:echo_runner"


@pytest.fixture(scope="module")
def service():
    with RunService(workers=2) as svc:
        yield svc


@pytest.fixture(scope="module")
def batch(service):
    return service.run_batch(REQUESTS)


def test_batch_results_bit_identical_to_direct_execution(batch):
    cache = ProgramCache()
    direct = [execute(r, cache) for r in REQUESTS]
    assert [r.canonical_bytes() for r in batch.results] \
        == [r.canonical_bytes() for r in direct]


def test_batch_is_ordered_and_ok(batch):
    assert batch.ok and batch.runs == len(REQUESTS)
    assert [r.variant for r in batch.results] \
        == [r.variant for r in REQUESTS]
    assert all(r.worker is not None for r in batch.results)
    assert batch.crashes == 0


def test_cache_counters_surface(service, batch):
    # first batch: every compile is at most one hit (the repeated jacobi
    # spf request can land on the warm worker), never all hits
    assert batch.cache_misses > 0
    # identical second batch: the pool is warm, so repeats that land on a
    # worker that has seen the request hit its cache; service-level stats
    # must account every verdict
    again = service.run_batch(REQUESTS)
    assert again.cache_hits + again.cache_misses == len(REQUESTS)
    assert again.cache_hits > 0
    stats = service.stats()
    assert stats["cache"]["hits"] >= again.cache_hits
    assert stats["cache"]["misses"] >= batch.cache_misses
    assert [r.canonical_bytes() for r in again.results] \
        == [r.canonical_bytes() for r in batch.results]


def test_streaming_yields_every_index_once(service):
    seen = dict(service.stream(REQUESTS[:2]))
    assert sorted(seen) == [0, 1]
    assert all(res.ok for res in seen.values())


def test_worker_exception_returns_structured_failure():
    with RunService(workers=1, runner=ECHO) as svc:
        batch = svc.run_batch([
            RunRequest("jacobi", "spf", preset="test", tag="ok-1"),
            RunRequest("jacobi", "spf", preset="test", tag="fail"),
            RunRequest("jacobi", "spf", preset="test", tag="ok-2"),
        ])
    assert not batch.ok and batch.runs == 3
    failed = batch.results[1]
    assert failed.error_kind == "RuntimeError"
    assert "injected failure" in failed.error
    assert batch.results[0].ok and batch.results[2].ok
    assert batch.crashes == 0


def test_worker_crash_mid_batch_surfaces_error_not_hang():
    # one worker: the requests behind the crash are queued when it dies,
    # and only the one it was running fails
    tags = ["ok-1", "crash", "ok-2", "ok-3", "ok-4"]
    with RunService(workers=1, runner=ECHO) as svc:
        batch = svc.run_batch([RunRequest("jacobi", "spf", preset="test",
                                          tag=tag) for tag in tags])
        assert [r.error_kind for r in batch.results] \
            == [None, "WorkerCrashed", None, None, None]
        assert "died" in batch.results[1].error
        assert batch.crashes == 1
        # the respawned worker finished the rest of the batch and keeps
        # serving subsequent batches
        after = svc.run_batch([RunRequest("jacobi", "spf", preset="test",
                                          tag="ok-5")])
        assert after.ok
        assert svc.stats()["crashes"] == 1


@pytest.mark.parametrize("tier", ["pool", "wire"])
def test_an_abandoned_stream_leaves_the_service_usable(tier):
    """Stop reading a stream after its first result: the next batch gets
    exactly its own results, in order.  The abandoned runs still finish;
    their results are dropped as they come back and count nowhere."""
    slow = [RunRequest("jacobi", "spf", preset="test", tag=f"slow:0.05:a{i}")
            for i in range(4)]
    with RunService(workers=2, runner=ECHO) as svc, \
            contextlib.ExitStack() as stack:
        if tier == "wire":
            server = stack.enter_context(served(svc))
            svc = stack.enter_context(WireClient(server.host, server.port))
        for _index, _result in svc.stream(slow):
            break
        before = svc.counters()
        batch = svc.run_batch([RunRequest("jacobi", "spf", preset="test",
                                          tag=f"b{i}") for i in range(5)])
        assert [r.tag for r in batch.results] == [f"b{i}" for i in range(5)]
        assert batch.ok and svc.counters() == before
        if tier == "wire":
            # a2 and a3 waited on the host behind a0 and a1: they came
            # back during the second batch and were not counted
            [host] = svc.stats()["fleet"]["hosts"].values()
            assert host["runs"] <= 2 + 5 and host["requeues"] == 0


def _pool_children():
    return collections.Counter(
        p.name for p in multiprocessing.active_children()
        if p.name.startswith("repro-serve-"))


def test_pool_workers_are_multiprocessing_children():
    # workers are found, pinned and metered from outside through
    # multiprocessing.active_children(), by name: alive the moment the
    # constructor returns, and N of them again after a crash + respawn
    others = _pool_children()        # the module fixture's pool, if up
    with RunService(workers=3, runner=ECHO) as svc:
        assert sorted(_pool_children() - others) \
            == ["repro-serve-0", "repro-serve-1", "repro-serve-2"]
        batch = svc.run_batch([
            RunRequest("jacobi", "spf", preset="test", tag="crash"),
            RunRequest("jacobi", "spf", preset="test", tag="ok")])
        assert batch.crashes == 1
        mine = _pool_children() - others
        assert sum(mine.values()) == 3 and mine["repro-serve-3"] == 1
    assert _pool_children() == others


def test_dead_workers_leave_pool_stats():
    with RunService(workers=2, runner=ECHO) as svc:
        svc.run_batch([
            RunRequest("jacobi", "spf", preset="test", tag="ok"),
            RunRequest("jacobi", "spf", preset="test", tag="crash"),
            RunRequest("jacobi", "spf", preset="test", tag="ok")])
        stats = svc.stats()
        assert stats["crashes"] == 1 and stats["workers"] == 2
        per_worker = stats["cache"]["per_worker"]
        assert len(per_worker) == stats["workers"]
        assert stats["cache"]["misses"] \
            == sum(w["misses"] for w in per_worker.values())


def test_a_worker_is_a_wire_peer():
    # parent <-> worker bytes are repro-serve/2 lines: read the first one
    # off a worker's socket before the service does
    with RunService(workers=1, runner=ECHO) as svc:
        hello = svc._targets[0].chan.recv()
        assert hello == {"op": "hello", "schema": WIRE_SCHEMA, "workers": 1}
        assert svc.run_batch([RunRequest("jacobi", "spf", preset="test",
                                         tag="after-hello")]).ok


def _started(svc) -> set:
    """How the pool's live workers were started: "fork" or "spawn"."""
    return {worker.proc._start_method for worker in svc._targets}


@pytest.fixture
def one_thread():
    """The fork rule's precondition: this process runs one Python thread
    (a wire server an earlier test closed may take a moment to end)."""
    deadline = time.monotonic() + 5.0
    while threading.active_count() > 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() == 1, threading.enumerate()


@pytest.mark.skipif(sys.platform != "linux", reason="workers fork on Linux")
def test_forked_workers_keep_no_parent_end(one_thread):
    """A forked worker, a respawned one too, closes every parent-side end
    it inherited (its own pair's and each live sibling's): closing one
    worker's end is EOF for that worker while its later-forked sibling
    still runs, so it exits 0 on its own, never by terminate."""
    svc = RunService(workers=2, runner=ECHO)
    try:
        batch = svc.run_batch([
            RunRequest("jacobi", "spf", preset="test", tag="crash"),
            RunRequest("jacobi", "spf", preset="test", tag="ok")])
        assert batch.crashes == 1 and batch.results[1].ok
        assert _started(svc) == {"fork"} and svc.live_workers() == 2
        exits = []
        for worker in svc._targets:     # oldest first: no bye, only EOF
            worker.chan.close()
            worker.proc.join(5.0)
            exits.append(worker.proc.exitcode)
    finally:
        for worker in svc._targets:
            worker.close(0)
    assert exits == [0, 0]


@pytest.mark.skipif(sys.platform != "linux", reason="workers fork on Linux")
def test_forked_worker_keeps_no_foreign_socket(one_thread):
    """A connection the parent had open when it forked a worker still
    ends when the parent closes it: the worker holds no copy of it."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        ours = socket.create_connection(listener.getsockname())
        peer, _addr = listener.accept()
    with peer, RunService(workers=1, runner=ECHO) as svc:
        assert _started(svc) == {"fork"}
        ours.close()
        peer.settimeout(2.0)
        assert peer.recv(1) == b""          # EOF, not a timeout


@pytest.mark.skipif(sys.platform != "linux", reason="workers fork on Linux")
def test_a_forking_pool_warns_nothing(one_thread):
    """From Python 3.12 ``os.fork`` warns when the process has more than
    one OS thread: numpy's OpenBLAS pool is one, and so is the bare
    ``_thread`` here, which ``threading`` does not count.  The pool
    silences exactly that warning around its own fork.  ``os.fork``
    clears the error a ``-W error`` filter would raise, so the warning is
    recorded instead."""
    gate = _thread.allocate_lock()
    gate.acquire()
    _thread.start_new_thread(gate.acquire, ())
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with RunService(workers=1, runner=ECHO) as svc:
                assert _started(svc) == {"fork"}
    finally:
        gate.release()
    assert not [w for w in caught if "multi-threaded" in str(w.message)]


def test_pool_spawns_while_another_thread_runs():
    """Forking while another thread holds a lock can deadlock the child:
    a pool started next to a running thread spawns its workers, and so
    does a respawn after a crash."""
    stop = threading.Event()
    bystander = threading.Thread(target=stop.wait, name="bystander")
    bystander.start()
    try:
        with RunService(workers=2, runner=ECHO) as svc:
            assert _started(svc) == {"spawn"}
            batch = svc.run_batch([
                RunRequest("jacobi", "spf", preset="test", tag="ok-1"),
                RunRequest("jacobi", "spf", preset="test", tag="crash"),
                RunRequest("jacobi", "spf", preset="test", tag="ok-2")])
            assert batch.crashes == 1
            assert batch.results[0].ok and batch.results[2].ok
            assert _started(svc) == {"spawn"} and svc.live_workers() == 2
            procs = [worker.proc for worker in svc._targets]
        assert [proc.exitcode for proc in procs] == [0, 0]
    finally:
        stop.set()
        bystander.join()


def test_unknown_variant_fails_structured_not_fatal(service):
    res = service.run_batch([RunRequest("jacobi", "warp",
                                        preset="test")]).results[0]
    assert not res.ok and res.error_kind == "ValueError"
    assert "warp" in res.error


def test_wire_protocol_round_trip(service):
    with served(service) as server:
        with raw_wire(server) as (chan, hello):
            assert hello == {"op": "hello", "schema": WIRE_SCHEMA,
                             "workers": 2}
            results = wire_runs(chan, REQUESTS)
        cache = ProgramCache()
        direct = [execute(r, cache) for r in REQUESTS]
        assert [r.canonical_bytes() for r in results] \
            == [r.canonical_bytes() for r in direct]
        # the client end: the same runs, one line per request
        with WireClient(server.host, server.port) as client:
            single = client.run(REQUESTS[0])
            assert single.ok and single.variant == "spf"
            batch = client.run_batch(REQUESTS)
            assert client.workers == 2
        assert [r.canonical_bytes() for r in batch.results] \
            == [r.canonical_bytes() for r in direct]
    # the pool serves its own callers again once its server has stopped
    assert service.stats()["workers"] == 2

"""Wire-layer failure semantics.

The contract under test (see docs/API.md "Wire failure semantics"):

* the client of one host (:class:`~repro.serve.WireClient`, a fleet of
  one) turns a dead, garbled or truncated peer into one structured
  ``HostLost`` result per unfinished request, naming the endpoint and
  the cause — never an exception, never a bare ``JSONDecodeError`` or
  ``IndexError`` out of an empty read;
* a connection dropped mid-batch keeps the results that arrived before
  the drop and fails only the rest;
* a host that answers every request with an ``error`` line is not
  resent to forever: each request goes back once, then fails;
* a server whose client has gone (a reply fails with ``BrokenPipeError``)
  ends the conversation quietly as ``"eof"``, and a ``shutdown`` still
  holds;
* ``WireClient.close()``/``__exit__`` are idempotent and safe after the
  server has died, in either order; ``WireServer.close()`` is idempotent
  and safe even when ``serve_forever`` never ran.
"""

import io
import json
import socket
import threading

import pytest

from repro.api import RunRequest, RunResult
from repro.serve import (FleetService, RunService, WireClient,
                         WireServer)
from repro.serve.wire import _serve_lines, serve_socket
from tests.serve_helpers import raw_wire

ECHO = "tests.serve_helpers:echo_runner"

HELLO = json.dumps({"op": "hello", "schema": "repro-serve/1",
                    "workers": 2}) + "\n"

REQ = RunRequest("jacobi", "spf", nprocs=2, preset="test", seq_time=1.0)

RESULT_DOC = RunResult(app="jacobi", variant="spf", nprocs=2,
                       preset="test", time=1.0, seq_time=1.0).to_json()


def scripted_server(handler):
    """One-connection raw TCP peer running ``handler(conn)`` then dying."""
    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    srv.listen(1)
    host, port = srv.getsockname()

    def run():
        conn, _ = srv.accept()
        try:
            handler(conn)
        finally:
            try:
                conn.close()
            finally:
                srv.close()

    threading.Thread(target=run, daemon=True).start()
    return host, port


def host_lost(result, host, port, cause) -> bool:
    return (not result.ok and result.error_kind == "HostLost"
            and f"{host}:{port} was lost: {cause}" in result.error)


# ---------------------------------------------------------------------- #
# a lost connection is a structured result

def _lost_after(reply, cause):
    def handler(conn):
        conn.sendall(HELLO.encode())
        conn.makefile("r").readline()          # swallow the run op
        conn.sendall(reply)

    host, port = scripted_server(handler)
    with WireClient(host, port, timeout=10.0) as client:
        result = client.run(REQ)
    assert host_lost(result, host, port, cause), result.error


def test_eof_mid_request_is_structured_not_json_error():
    _lost_after(b"", "EOF")


def test_partial_line_is_structured():
    _lost_after(b'{"op": "result"', "partial line")   # no newline


def test_garbled_line_is_structured():
    _lost_after(b"!!not json!!\n", "garbled line")


def test_a_drop_mid_batch_keeps_what_completed_and_fails_the_rest():
    def handler(conn):
        conn.sendall(HELLO.encode())
        conn.makefile("r").readline()          # the first chunk: two
        msg = {"op": "result", "index": 0, "result": RESULT_DOC}
        conn.sendall((json.dumps(msg) + "\n").encode())
        # die with index 1 of the chunk still in flight

    host, port = scripted_server(handler)
    with WireClient(host, port, timeout=10.0) as client:
        batch = client.run_batch([REQ, REQ, REQ])
        assert client.stats()["fleet"]["requeues"] == 1
    first, *rest = batch.results
    assert first.canonical_bytes() \
        == RunResult.from_json(RESULT_DOC).canonical_bytes()
    assert all(host_lost(r, host, port, "EOF") for r in rest)
    assert batch.crashes == 1


class _Refuses:
    """A service that answers every request with an ``error`` line."""

    workers = 2

    def stream(self, requests):
        raise RuntimeError("no runs here")

    def run_batch(self, requests, on_result=None):
        raise RuntimeError("no runs here")

    def stats(self):
        return {"workers": 2}


def test_an_error_answering_host_is_resent_once_then_fails():
    server = WireServer(_Refuses())
    server.serve_in_thread()
    fleet = FleetService([f"{server.host}:{server.port}"], retries=0,
                         timeout=5.0)
    batches = []
    worker = threading.Thread(
        target=lambda: batches.append(fleet.run_batch([REQ] * 3)),
        daemon=True)
    worker.start()
    worker.join(5.0)
    server.close()
    assert not worker.is_alive(), "the host's requests are resent forever"
    fleet.close()
    [batch] = batches
    assert [r.error_kind for r in batch.results] == ["HostLost"] * 3
    assert all("already requeued once: bad 'error' line: "
               "ValueError('no runs here')" in r.error
               for r in batch.results)
    assert fleet.stats()["fleet"]["requeues"] == 3


# ---------------------------------------------------------------------- #
# idempotent close, both orderings

@pytest.fixture(scope="module")
def service():
    with RunService(workers=1, runner=ECHO) as svc:
        yield svc


def test_client_close_after_server_death(service):
    server = WireServer(service)
    server.serve_in_thread()
    client = WireClient(server.host, server.port)
    assert client.run(REQ).ok
    with raw_wire(server) as (chan, _hello):
        chan.send({"op": "shutdown"})         # takes the server down
        assert chan.recv() == {"op": "bye"}
    client.close()             # server is gone: must not raise
    client.close()             # and stays a no-op
    server.close()             # after a client-driven shutdown: no-op
    server.close()


def test_client_exit_after_server_death(service):
    server = WireServer(service)
    server.serve_in_thread()
    with WireClient(server.host, server.port) as client:
        assert client.run(REQ).ok
        server.close()         # server dies inside the with-block
    server.close()             # double close is a no-op


def test_server_double_close_without_serving(service):
    # close() before serve_forever ever ran must not block on the
    # BaseServer shutdown handshake (there is no accept loop to stop)
    server = WireServer(service)
    server.close()
    server.close()


def test_send_after_close_is_structured(service):
    server = WireServer(service)
    server.serve_in_thread()
    client = WireClient(server.host, server.port)
    client.close()
    with pytest.raises(RuntimeError, match="WireClient is closed"):
        client.run(REQ)
    server.close()


# ---------------------------------------------------------------------- #
# a server whose client has gone

class _Stats:
    workers = 1

    def stats(self):
        return {"workers": 1}


class _GoneAfter(io.StringIO):
    """A text stream whose reader goes away after ``flushes`` flushes."""

    def __init__(self, flushes: int):
        super().__init__()
        self.flushes = flushes

    def flush(self):
        if not self.flushes:
            raise BrokenPipeError(32, "Broken pipe")
        self.flushes -= 1


@pytest.mark.parametrize("flushes, lines, verdict", [
    (0, ['{"op": "stats"}'], "eof"),
    (1, ['{"op": "stats"}', '{"op": "stats"}'], "eof"),
    (1, ['{"op": "run"}', '{"op": "stats"}'], "eof"),
    (1, ['not json', '{"op": "stats"}'], "eof"),
    (1, ['{"op": "shutdown"}'], "shutdown"),
], ids=["hello", "reply", "error-line", "bad-json-line", "shutdown"])
def test_a_gone_client_ends_the_conversation(flushes, lines, verdict):
    """Once raised out of the loop -- and socketserver printed the
    traceback, or a pool worker died of it -- a reply the client is no
    longer there to read ends the conversation; a shutdown still holds."""
    assert _serve_lines(_Stats(), lines, _GoneAfter(flushes),
                        threading.Lock()) == verdict


def test_serve_socket_to_a_closed_peer_is_eof():
    """The unsent hello stays buffered; closing the stream must not raise
    it a second time."""
    ours, theirs = socket.socketpair()
    theirs.close()
    with ours:
        assert serve_socket(_Stats(), ours) == "eof"

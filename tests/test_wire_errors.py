"""Wire-layer failure semantics (the PR's bugfix sweep).

The contract under test (see docs/API.md):

* a dead/garbled/truncated peer raises the structured
  :class:`~repro.serve.WireConnectionLost` — carrying the endpoint and
  the in-flight request id — never a bare ``JSONDecodeError`` or
  ``IndexError`` out of an empty read;
* a mid-stream connection drop during :meth:`WireClient.stream_batch`
  fails fast and marks the split: ``completed`` maps the indexes that
  already produced results to them, ``pending`` lists the ones still in
  flight (the fleet tier requeues exactly ``pending``);
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
from repro.serve import (RunService, WireClient, WireConnectionLost,
                         WireServer)
from repro.serve.wire import _serve_lines, serve_socket

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


# ---------------------------------------------------------------------- #
# structured connection-lost errors out of _recv

def test_eof_mid_request_is_structured_not_json_error():
    def handler(conn):
        conn.sendall(HELLO.encode())
        conn.makefile("r").readline()          # swallow the run op

    host, port = scripted_server(handler)
    client = WireClient(host, port, timeout=10.0)
    with pytest.raises(WireConnectionLost) as info:
        client.run(REQ, id="req-7")
    exc = info.value
    assert (exc.host, exc.port) == (host, port)
    assert exc.in_flight == "req-7"
    assert "EOF" in str(exc)
    client.close()


def test_partial_line_is_structured():
    def handler(conn):
        conn.sendall(HELLO.encode())
        conn.makefile("r").readline()
        conn.sendall(b'{"op": "result"')       # truncated, no newline

    host, port = scripted_server(handler)
    client = WireClient(host, port, timeout=10.0)
    with pytest.raises(WireConnectionLost, match="partial line"):
        client.run(REQ, id="req-8")
    client.close()


def test_garbled_line_is_structured():
    def handler(conn):
        conn.sendall(HELLO.encode())
        conn.makefile("r").readline()
        conn.sendall(b"!!not json!!\n")

    host, port = scripted_server(handler)
    client = WireClient(host, port, timeout=10.0)
    with pytest.raises(WireConnectionLost, match="garbled"):
        client.run(REQ, id="req-9")
    client.close()


# ---------------------------------------------------------------------- #
# stream_batch fail-fast with the completed/pending split

def test_stream_batch_drop_marks_completed_and_pending():
    def handler(conn):
        conn.sendall(HELLO.encode())
        conn.makefile("r").readline()          # the batch op
        msg = {"op": "result", "id": "b1", "index": 0,
               "result": RESULT_DOC}
        conn.sendall((json.dumps(msg) + "\n").encode())
        # die with indexes 1 and 2 still in flight

    host, port = scripted_server(handler)
    client = WireClient(host, port, timeout=10.0)
    events = []
    with pytest.raises(WireConnectionLost) as info:
        for event in client.stream_batch([REQ, REQ, REQ], id="b1"):
            events.append(event)
    exc = info.value
    assert [e[:2] for e in events] == [("result", 0)]
    assert sorted(exc.completed) == [0]
    assert exc.completed[0].canonical_bytes() \
        == events[0][2].canonical_bytes()
    assert exc.pending == [1, 2]
    assert exc.in_flight == "b1"
    client.close()


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
    assert client.run(REQ, id="ok").ok
    client.shutdown()          # takes the server down
    client.close()             # server is gone: must not raise
    client.close()             # and stays a no-op
    server.close()             # after a client-driven shutdown: no-op
    server.close()


def test_client_exit_after_server_death(service):
    server = WireServer(service)
    server.serve_in_thread()
    with WireClient(server.host, server.port) as client:
        assert client.run(REQ, id="ok").ok
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
    with pytest.raises(WireConnectionLost, match="already closed"):
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

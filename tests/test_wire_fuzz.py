"""Fuzzing the two ``repro-serve/1`` decoders with arbitrary input.

The server side is :func:`repro.serve.wire.serve_socket` — the read loop
every server runs (``_serve_lines`` over the socket's text stream) — fed
raw bytes and JSON-like lines.  The client side is
:class:`repro.serve.WireClient`'s reader, fed the same after a good
``hello``.  The only outcomes allowed:

* server: a reply line per input line that is an ``{"op": "error"}``,
  or a ``result`` that is a structured failure (``BadRequest`` for a
  request doc that does not parse), a ``batch-done``, ``stats`` or
  ``bye``; the loop itself returns ``"bye"``, ``"shutdown"`` or
  ``"eof"`` and never raises;
* client: a well-formed reply, :class:`WireConnectionLost`, or the
  ``RuntimeError`` an ``{"op": "error"}`` reply is raised as.

Never another exception, never a hang: everything runs over socket
pairs with a timeout, and the whole file takes a few seconds.
"""

import json
import socket
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import RunRequest, RunResult
from repro.serve import WireClient, WireConnectionLost
from repro.serve.service import Service
from repro.serve.wire import WIRE_SCHEMA, JsonLines, serve_socket

TIMEOUT_S = 10.0
FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


class _Unserved(Service):
    """A service with no target behind it: a request that parses fails
    as ``Unserved``, one that does not as ``BadRequest``."""

    workers = 1
    exhausted = ("Unserved", "nothing runs behind this service")

    def stats(self) -> dict:
        return {"workers": 0, "cache": {"hits": 0, "misses": 0}}


# ---------------------------------------------------------------------- #
# strategies: JSON values, request-like docs, protocol-like messages, and
# the raw lines and bytes around them

SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=12))
VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)
REQUEST_DOCS = st.fixed_dictionaries({}, optional={
    "schema": st.sampled_from(["repro-run/1", "repro-run/0"]) | VALUES,
    "app": st.sampled_from(["jacobi", "nbf", "nope"]) | VALUES,
    "variant": st.sampled_from(["spf", "tmk", "seq", "nope"]) | VALUES,
    "nprocs": st.integers(-2, 9) | VALUES,
    "preset": st.sampled_from(["test", "paper", "nope"]) | VALUES,
    "mode": st.sampled_from(["sim", "model", "nope"]) | VALUES,
    "bogus": VALUES,
})
RESULT_DOC = RunResult(app="jacobi", variant="spf", nprocs=2, preset="test",
                       time=1.0, seq_time=1.0).to_json()
OPS = st.sampled_from(["run", "batch", "stats", "hello", "result",
                       "batch-done", "error", "bye", "nope"]) | VALUES
MESSAGES = st.fixed_dictionaries({"op": OPS}, optional={
    "id": VALUES,
    "request": REQUEST_DOCS | VALUES,
    "requests": st.lists(REQUEST_DOCS | VALUES, max_size=3) | VALUES,
    "index": st.integers(-1, 3) | VALUES,
    "result": st.just(RESULT_DOC) | REQUEST_DOCS | VALUES,
    "schema": st.just(WIRE_SCHEMA) | VALUES,
    "message": VALUES,
})
DEEP = st.integers(1, 3000).map(     # the parser's limit is near 1000
    lambda depth: "[" * depth + "]" * (depth % 3))
LINES = (MESSAGES.map(json.dumps) | VALUES.map(json.dumps)
         | st.text(max_size=40) | DEEP)
LINE_STREAMS = st.lists(
    LINES.map(lambda line: line.replace("\n", " ").encode("utf-8")),
    max_size=6).map(lambda lines: b"".join(line + b"\n" for line in lines))
PAYLOADS = LINE_STREAMS | st.binary(max_size=200) | st.tuples(
    LINE_STREAMS, st.binary(max_size=40)).map(lambda pair: b"".join(pair))


# ---------------------------------------------------------------------- #
# the server read loop

def _serve(data: bytes) -> tuple:
    """Run the server loop over a socket pair fed ``data`` (then EOF);
    return ``(verdict, reply objects)``.  The client's ends run on two
    threads, so neither side can block the other on a full buffer."""
    ours, theirs = socket.socketpair()
    ours.settimeout(TIMEOUT_S)
    theirs.settimeout(TIMEOUT_S)
    replies = []

    def write_requests():
        try:
            theirs.sendall(data)
            theirs.shutdown(socket.SHUT_WR)
        except OSError:
            pass              # the server stopped reading (a bye) and left

    def read_replies():
        with theirs.makefile("rb") as stream:
            for line in stream:
                replies.append(json.loads(line))

    threads = [threading.Thread(target=fn, daemon=True)
               for fn in (write_requests, read_replies)]
    for thread in threads:
        thread.start()
    with _Unserved() as service:
        verdict = serve_socket(service, ours)
    ours.shutdown(socket.SHUT_WR)     # the reader's EOF, after every reply
    threads[1].join(TIMEOUT_S)
    ours.close()
    threads[0].join(TIMEOUT_S)
    theirs.close()
    assert not any(thread.is_alive() for thread in threads), "a hang"
    return verdict, replies


def _check_reply(msg: dict) -> None:
    op = msg["op"]
    assert op in ("error", "result", "batch-done", "stats", "bye"), msg
    if op == "error":
        assert isinstance(msg["message"], str)
    if op == "result":
        result = RunResult.from_json(msg["result"])
        assert not result.ok and result.error_kind in ("BadRequest",
                                                       "Unserved"), result
    if op == "batch-done":
        assert all(not r.ok for r in _batch_results(msg))


def _batch_results(msg: dict) -> list:
    return [RunResult.from_json(doc) for doc in msg["batch"]["results"]]


@FUZZ
@given(PAYLOADS)
def test_server_answers_any_input_with_a_structured_reply(data):
    verdict, replies = _serve(data)
    assert verdict in ("bye", "shutdown", "eof")
    assert replies[0] == {"op": "hello", "schema": WIRE_SCHEMA,
                          "workers": 1}
    for msg in replies[1:]:
        _check_reply(msg)


@pytest.mark.parametrize("data, ops", [
    (b"\xff\xfe not utf-8\n{\"op\": \"stats\"}\n", ["error", "stats"]),
    (b"[" * 100_000 + b"\n{\"op\": \"bye\"}\n", ["error", "bye"]),
    (b"{\"op\": \"run\", \"request\": {\"app\": 7}}\n", ["result"]),
    (b"{\"op\": \"batch\", \"requests\": [1, {}]}\n",
     ["result", "result", "batch-done"]),
], ids=["not-utf-8", "nested-past-the-limit", "bad-request", "bad-batch"])
def test_server_examples(data, ops):
    """Undecodable bytes and nesting past the parser's recursion limit
    are one error reply each; the session carries on."""
    verdict, replies = _serve(data)
    assert [msg["op"] for msg in replies[1:]] == ops
    for msg in replies[1:]:
        _check_reply(msg)
    assert verdict == ("bye" if ops[-1] == "bye" else "eof")


# ---------------------------------------------------------------------- #
# the client reader

HELLO = (json.dumps({"op": "hello", "schema": WIRE_SCHEMA, "workers": 1})
         + "\n").encode()
REQUEST = RunRequest("jacobi", "spf", nprocs=2, preset="test",
                     seq_time=1.0)


def _client_over(data: bytes, monkeypatch) -> tuple:
    """A :class:`WireClient` whose peer sends a good hello, then
    ``data``, then closes; ``(client, peer socket)``."""
    ours, theirs = socket.socketpair()
    ours.settimeout(TIMEOUT_S)
    theirs.sendall(HELLO + data)
    theirs.shutdown(socket.SHUT_WR)
    monkeypatch.setattr(JsonLines, "connect",
                        classmethod(lambda cls, host, port, timeout:
                                    cls(ours)))
    return WireClient("fuzz-peer", 1, timeout=TIMEOUT_S), theirs


def _has_error_line(data: bytes) -> bool:
    for line in data.split(b"\n"):
        try:
            msg = json.loads(line)
        except (ValueError, RecursionError):
            continue
        if isinstance(msg, dict) and msg.get("op") == "error":
            return True
    return False


CALLS = {
    "run": lambda client: client.run(REQUEST, id="fuzz"),
    "stats": lambda client: client.stats(),
    "batch": lambda client: list(client.stream_batch([REQUEST, REQUEST])),
}


@FUZZ
@given(PAYLOADS, st.sampled_from(sorted(CALLS)))
def test_client_reader_raises_only_structured_errors(data, call):
    with pytest.MonkeyPatch.context() as monkeypatch:
        client, peer = _client_over(data, monkeypatch)
        try:
            CALLS[call](client)
        except WireConnectionLost as exc:
            assert (exc.host, exc.port) == ("fuzz-peer", 1)
        except RuntimeError as exc:
            assert type(exc) is RuntimeError and _has_error_line(data), exc
        finally:
            client.close()
            peer.close()


def test_a_garbled_line_loses_nothing_that_came_before_it(monkeypatch):
    """A stream of results then garbage: the results before the garbled
    line are delivered, and the loss marks exactly the rest pending."""
    result = {"op": "result", "index": 1, "result": RESULT_DOC}
    data = (json.dumps(result) + "\n!!not json!!\n").encode()
    client, peer = _client_over(data, monkeypatch)
    seen = []
    with pytest.raises(WireConnectionLost, match="garbled line") as info:
        for kind, index, _payload in client.stream_batch([REQUEST] * 3):
            seen.append((kind, index))
    assert seen == [("result", 1)]
    assert sorted(info.value.completed) == [1]
    assert info.value.pending == [0, 2]
    client.close()
    peer.close()


@pytest.mark.parametrize("reply", [
    {"op": "stats"},                                  # no "stats" field
    {"op": "result", "id": "x"},                      # no "result" doc
    {"op": "result", "result": {"app": "jacobi"}},    # not a result doc
    {"op": "bye"},                                    # not a reply to run
], ids=["stats-without-stats", "result-without-doc", "not-a-result-doc",
        "bye-for-run"])
def test_client_treats_a_malformed_reply_as_a_lost_connection(
        reply, monkeypatch):
    data = (json.dumps(reply) + "\n").encode()
    client, peer = _client_over(data, monkeypatch)
    call = client.stats if reply["op"] == "stats" \
        else (lambda: client.run(REQUEST, id="x"))
    with pytest.raises(WireConnectionLost, match="malformed reply"):
        call()
    client.close()
    peer.close()

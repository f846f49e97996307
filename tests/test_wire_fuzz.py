"""Fuzzing the two ``repro-serve/2`` decoders with arbitrary input.

The server side is a host's relay — :meth:`Service.serve` reading a
:class:`~repro.serve.wire.Session` line by line (``Service._hear``, the
only reader of outside input) — fed raw bytes and JSON-like lines over
a socketpair.  The client side is the one reader every
client runs, the :class:`~repro.serve.service.Service` loop, driven
through :class:`repro.serve.WireClient` (a fleet of one host) whose
every connection is fed the same after a good ``hello``.  The only
outcomes allowed:

* server: a reply line per input line that is an ``{"op": "error"}``,
  or a ``result`` that is a structured failure (``BadRequest`` for a
  request doc that does not parse), ``stats`` or ``bye``; the loop
  itself returns ``"bye"``, ``"shutdown"`` or ``"eof"`` and never
  raises;
* client: exactly one result per request, either one the peer sent or
  a structured ``HostLost`` failure naming the peer; a request is sent
  at most twice.

Never an exception, never a hang: everything runs over socket pairs
with a timeout, and the whole file takes a few seconds.
"""

import json
import socket

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import RunRequest, RunResult
from repro.serve import WireClient
from repro.serve.wire import WIRE_SCHEMA, JsonLines
from tests.serve_helpers import Unserved, serve_bytes

TIMEOUT_S = 10.0
FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


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
OPS = st.sampled_from(["run", "stats", "hello", "result", "error", "bye",
                       "nope"]) | VALUES
MESSAGES = st.fixed_dictionaries({"op": OPS}, optional={
    "id": st.integers(-1, 3) | VALUES,
    "request": REQUEST_DOCS | VALUES,
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

def _check_reply(msg: dict) -> None:
    op = msg["op"]
    assert op in ("error", "result", "stats", "bye"), msg
    if op == "error":
        assert isinstance(msg["message"], str)
    if op == "result":
        result = RunResult.from_json(msg["result"])
        assert not result.ok and result.error_kind in ("BadRequest",
                                                       "Unserved"), result


@FUZZ
@given(PAYLOADS)
def test_server_answers_any_input_with_a_structured_reply(data):
    with Unserved() as service:
        verdict, replies = serve_bytes(service, data)
    assert verdict in ("bye", "shutdown", "eof")
    assert replies[0] == {"op": "hello", "schema": WIRE_SCHEMA,
                          "workers": 1}
    for msg in replies[1:]:
        _check_reply(msg)


@pytest.mark.parametrize("data, ops", [
    (b"\xff\xfe not utf-8\n{\"op\": \"stats\"}\n", ["error", "stats"]),
    (b"[" * 100_000 + b"\n{\"op\": \"bye\"}\n", ["error", "bye"]),
    (b"{\"op\": \"run\", \"request\": {\"app\": 7}}\n", ["result"]),
    (b"{\"op\": \"batch\", \"requests\": [{}]}\n", ["error"]),
], ids=["not-utf-8", "nested-past-the-limit", "bad-request", "bad-batch"])
def test_server_examples(data, ops):
    """Undecodable bytes and nesting past the parser's recursion limit
    are one error reply each; the session carries on."""
    with Unserved() as service:
        verdict, replies = serve_bytes(service, data)
    assert [msg["op"] for msg in replies[1:]] == ops
    for msg in replies[1:]:
        _check_reply(msg)
    assert verdict == ("bye" if ops[-1] == "bye" else "eof")


# ---------------------------------------------------------------------- #
# the client reader

def _client_over(data: bytes, monkeypatch, workers: int = 1,
                 connects: int = -1) -> tuple:
    """A :class:`WireClient` to ``fuzz-peer:1`` whose every connection's
    peer sends a good hello (``workers``), then ``data``, then closes;
    after ``connects`` connections (-1: no limit) a connect is refused.
    ``(client, peer sockets)``."""
    hello = {"op": "hello", "schema": WIRE_SCHEMA, "workers": workers}
    peers = []

    def connect(cls, host, port, timeout):
        if len(peers) == connects:
            raise ConnectionRefusedError(f"{host}:{port} refused")
        ours, theirs = socket.socketpair()
        ours.settimeout(TIMEOUT_S)
        theirs.settimeout(TIMEOUT_S)
        theirs.sendall((json.dumps(hello) + "\n").encode() + data)
        theirs.shutdown(socket.SHUT_WR)
        peers.append(theirs)
        return cls(ours)

    monkeypatch.setattr(JsonLines, "connect", classmethod(connect))
    client = WireClient("fuzz-peer", 1, timeout=TIMEOUT_S)
    client.retries = 0            # a refused reconnect: no backoff sleep
    return client, peers


def _sent(client, peers) -> list:
    """Close the client; the request tags each peer was sent, in order."""
    client.close()
    tags = []
    for peer in peers:
        with peer, peer.makefile("rb") as stream:
            for line in stream:
                msg = json.loads(line)
                if msg["op"] == "run":
                    tags.append(msg["request"]["tag"])
    return tags


def _structured(result) -> bool:
    """A result the peer sent, or the client's structured loss."""
    return result.ok or (result.error_kind == "HostLost"
                         and "fuzz-peer:1 was lost" in result.error)


TAGGED = [RunRequest("jacobi", "spf", nprocs=2, preset="test",
                     seq_time=1.0, tag=f"r{i}") for i in range(3)]


@FUZZ
@given(PAYLOADS, st.integers(1, 3), st.integers(1, 3))
def test_client_reader_raises_only_structured_errors(data, workers, n):
    with pytest.MonkeyPatch.context() as monkeypatch:
        client, peers = _client_over(data, monkeypatch, workers)
        batch = client.run_batch(TAGGED[:n])
        tags = _sent(client, peers)
    assert len(batch.results) == n
    assert all(_structured(result) for result in batch.results), \
        [r.error for r in batch.results]
    # each request is sent at most twice: a second loss fails it
    assert all(tags.count(r.tag) in (1, 2) for r in TAGGED[:n]), tags


def test_a_garbled_line_loses_nothing_that_came_before_it(monkeypatch):
    """A stream of results then garbage: the result before the garbled
    line is kept and not sent again; only the rest fail."""
    result = {"op": "result", "id": 1, "result": RESULT_DOC}
    data = (json.dumps(result) + "\n!!not json!!\n").encode()
    client, peers = _client_over(data, monkeypatch, workers=3, connects=1)
    batch = client.run_batch(TAGGED)
    assert _sent(client, peers) == ["r0", "r1", "r2"]
    assert batch.results[1].canonical_bytes() \
        == RunResult.from_json(RESULT_DOC).canonical_bytes()
    for lost in batch.results[0], batch.results[2]:
        assert _structured(lost) and "garbled line" in lost.error


@pytest.mark.parametrize("reply", [
    {"op": "stats"},                                  # where a result is due
    {"op": "result", "id": 0},                        # no "result" doc
    {"op": "result", "id": 0,                         # not a result doc
     "result": {"app": "jacobi"}},
    {"op": "bye"},                                    # not a reply to run
], ids=["stats-without-stats", "result-without-doc", "not-a-result-doc",
        "bye-for-run"])
def test_client_treats_a_malformed_reply_as_a_lost_connection(
        reply, monkeypatch):
    data = (json.dumps(reply) + "\n").encode()
    client, peers = _client_over(data, monkeypatch)
    result = client.run(TAGGED[0])
    assert _sent(client, peers) == ["r0", "r0"]     # sent twice, then failed
    assert _structured(result) and not result.ok
    assert f"already requeued once: bad {reply['op']!r} line" \
        in result.error

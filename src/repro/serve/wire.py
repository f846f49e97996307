"""JSON-lines wire protocol for the run service (stdio and TCP).

One message per line, each a JSON object with an ``"op"`` field.  The
request/result payloads are exactly the documents produced by
:meth:`repro.api.RunRequest.to_json` and
:meth:`repro.api.RunResult.to_json` — the wire format *is* the library
serialization (``repro-run/1``), not a third dialect.

Server -> client::

    {"op": "hello", "schema": "repro-serve/1", "workers": N}
    {"op": "result", "id": ..., "index": i, "result": <run doc>}   # streamed
    {"op": "batch-done", "id": ..., "batch": <batch doc>}
    {"op": "stats", "stats": {...}}
    {"op": "error", "message": "..."}
    {"op": "bye"}

Client -> server::

    {"op": "run", "id": ..., "request": <request doc>}
    {"op": "batch", "id": ..., "requests": [<request doc>, ...]}
    {"op": "stats"}
    {"op": "shutdown"}          # stop the whole service
    {"op": "bye"}               # close just this connection

Three servers answer these lines through the one :func:`_serve_lines`
loop: ``repro serve`` on stdio, :class:`WireServer` per TCP connection
(``--port``), and every pool worker process on its socketpair
(:func:`serve_socket` — a worker is a one-worker wire peer that is only
ever sent ``run``, ``stats`` and ``bye``).  Two clients read them off a
:class:`JsonLines` socket end: :class:`WireClient`, the blocking
in-library client, and the :class:`~repro.serve.service.Service`
dispatch loop, which multiplexes many such ends.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
from collections import deque
from typing import Iterable, Optional

from repro.api.types import BatchResult, RunResult

WIRE_SCHEMA = "repro-serve/1"

__all__ = ["WIRE_SCHEMA", "JsonLines", "serve_stdio", "serve_socket",
           "WireServer", "WireClient", "WireConnectionLost"]


class WireConnectionLost(ConnectionError):
    """The peer went away mid-conversation.

    Raised instead of a bare ``JSONDecodeError``/``IndexError`` when the
    socket returns EOF, a partial line, or a garbled line.  Structured so
    a retrying caller can act on it:

    * ``host``/``port`` — the endpoint that was lost;
    * ``in_flight`` — the id (or op) of the request awaiting a reply;
    * ``completed``/``pending`` — for a batch stream, which batch indexes
      had already produced results and which were still in flight when
      the connection died (``completed`` maps index -> RunResult).
    """

    def __init__(self, message: str, host: Optional[str] = None,
                 port: Optional[int] = None,
                 in_flight: Optional[object] = None,
                 completed: Optional[dict] = None,
                 pending: Optional[list] = None):
        super().__init__(message)
        self.host = host
        self.port = port
        self.in_flight = in_flight
        self.completed = dict(completed or {})
        self.pending = list(pending or [])


class JsonLines:
    """The client end of one ``repro-serve/1`` conversation on a socket:
    message objects out, complete JSON lines in.

    :meth:`fill` is one ``recv`` — what a select loop calls when the
    socket is readable — and queues every complete line on ``inbox``;
    :meth:`recv` blocks for the next message.  EOF, a line cut short by
    EOF and a line that is not a JSON object all raise
    ``ConnectionError`` saying which.  The lines that arrived whole before
    a garbled one stay queued (:meth:`recv` hands them out first); the
    stream is unusable from the garbled line on, so every later
    :meth:`fill` raises again.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.inbox: deque = deque()      # decoded, not yet taken
        self._tail = b""                 # bytes after the last newline
        self._garbled: Optional[ConnectionError] = None

    @classmethod
    def connect(cls, host: str, port: int, timeout: float) -> "JsonLines":
        sock = socket.create_connection((host, int(port)), timeout=timeout)
        # small request lines must not wait on Nagle for the peer's ACK
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return cls(sock)

    def send(self, obj: dict) -> None:
        self.sock.sendall(
            (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8"))

    def fill(self) -> None:
        if self._garbled is not None:
            raise self._garbled
        data = self.sock.recv(1 << 16)
        if not data:
            raise ConnectionError(
                f"partial line ({len(self._tail)} byte(s) without a "
                f"newline)" if self._tail
                else "EOF (peer closed the connection)")
        *lines, self._tail = (self._tail + data).split(b"\n")
        for line in lines:
            try:
                msg = json.loads(line)
                if not isinstance(msg, dict):
                    raise ValueError(f"not an object: {msg!r}")
            except (ValueError, RecursionError) as exc:
                # RecursionError: nesting deeper than the parser's limit
                self._garbled = ConnectionError(f"garbled line: {exc!r}")
                raise self._garbled from exc
            self.inbox.append(msg)

    def recv(self) -> dict:
        while not self.inbox:
            try:
                self.fill()
            except ConnectionError:
                if not self.inbox:
                    raise
        return self.inbox.popleft()

    def close(self) -> None:
        self.sock.close()


class _PeerGone(Exception):
    """A reply could not be written: the client has gone."""


def _handle(service, msg, emit, lock: threading.Lock) -> str:
    """Dispatch one client message; returns "", "bye" or "shutdown".

    ``emit`` writes one message object back to this client; ``lock``
    serializes access to the (single-consumer) service queues so several
    TCP connections cannot interleave their streams.  ``service`` needs
    ``workers``, ``stream`` and ``stats`` (and ``run_batch`` to answer
    ``batch``).  A message that is not what its op requires raises,
    naming the field — one ``error`` line, the session stays up.
    """
    if not isinstance(msg, dict):
        raise ValueError(f"a message is a JSON object with an \"op\", "
                         f"not {type(msg).__name__}")
    op = msg.get("op")
    if op in ("bye", "shutdown"):
        try:
            emit({"op": "bye"})
        except _PeerGone:
            pass              # a shutdown holds even if its sender left
        return op
    if op == "stats":
        with lock:
            emit({"op": "stats", "stats": service.stats()})
        return ""
    if op == "run":
        if "request" not in msg:
            raise ValueError("run: missing \"request\" (a request doc)")
        with lock:
            [(_index, result)] = service.stream([msg["request"]])
        emit({"op": "result", "id": msg.get("id"), "index": 0,
              "result": result.to_json()})
        return ""
    if op == "batch":
        requests = msg.get("requests", [])
        if not isinstance(requests, list):
            raise ValueError(f"batch: \"requests\" must be a list of "
                             f"request docs, not {type(requests).__name__}")

        def on_result(index: int, result: RunResult) -> None:
            emit({"op": "result", "id": msg.get("id"), "index": index,
                  "result": result.to_json()})

        with lock:
            batch = service.run_batch(requests, on_result)
        emit({"op": "batch-done", "id": msg.get("id"),
              "batch": batch.to_json()})
        return ""
    emit({"op": "error", "message": f"unknown op {op!r}"})
    return ""


def _serve_lines(service, lines: Iterable[str], out, lock) -> str:
    """The read-dispatch loop of every server: greet, then answer one
    JSON line at a time on the text stream ``out``.  Returns why it
    stopped: ``"bye"``, ``"shutdown"`` or ``"eof"`` — the last also when
    the client has gone, so a reply or a read fails with ``OSError``."""
    def emit(obj: dict) -> None:
        try:
            out.write(json.dumps(obj, sort_keys=True) + "\n")
            out.flush()
        except OSError as exc:
            raise _PeerGone from exc

    try:
        emit({"op": "hello", "schema": WIRE_SCHEMA,
              "workers": service.workers})
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                msg = json.loads(line)
            except (ValueError, RecursionError) as exc:
                emit({"op": "error", "message": f"bad json: {exc!r}"})
                continue
            try:
                verdict = _handle(service, msg, emit, lock)
            except _PeerGone:
                raise
            except Exception as exc:  # noqa: BLE001 — keep the session alive
                emit({"op": "error", "message": str(exc)})
                continue
            if verdict:
                return verdict
    except (_PeerGone, OSError, ValueError):
        # a reply or a read found the client gone, or the stream could
        # not decode what it sent (a socket's stream replaces such bytes
        # instead: see serve_socket)
        pass
    return "eof"


# ---------------------------------------------------------------------- #
# the three servers: text streams, a connected socket, a TCP listener

def serve_stdio(service, stdin, stdout) -> str:
    """Serve one client over text streams; returns why we stopped."""
    return _serve_lines(service, stdin, stdout, threading.Lock())


def serve_socket(service, sock: socket.socket,
                 lock: Optional[threading.Lock] = None) -> str:
    """Serve the peer of a connected socket — one of
    :class:`WireServer`'s TCP connections, or a pool worker's end of its
    socketpair; returns why we stopped.  The caller closes ``sock``.

    Reading and writing are two streams: a text stream that does both
    drops the lines it has read ahead whenever it writes, so a client
    that sent several lines at once would lose all but the first.  Bytes
    that are not UTF-8 read as U+FFFD, so such a line is answered like
    any other that is not JSON and the session carries on."""
    reader = sock.makefile("r", encoding="utf-8", errors="replace")
    writer = sock.makefile("w", encoding="utf-8")
    try:
        return _serve_lines(service, reader, writer,
                            lock or threading.Lock())
    finally:
        reader.close()
        try:
            writer.close()
        except OSError:
            pass      # the unsent tail of a reply to a peer that has gone


class WireServer:
    """Threaded TCP front-end over one shared :class:`RunService`.

    Connections are accepted concurrently but batches are serialized
    through the service lock (the pool is the unit of parallelism, not
    the connection count).  ``shutdown`` from any client stops the
    server.
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self._lock = threading.Lock()
        self._started = False
        self._closed = False
        outer = self

        class _Handler(socketserver.StreamRequestHandler):
            # setup() sets TCP_NODELAY: a batch reply is several small
            # lines, and Nagle x delayed-ACK stalls each ~40 ms
            disable_nagle_algorithm = True

            def handle(self) -> None:
                if serve_socket(outer.service, self.connection,
                                outer._lock) == "shutdown":
                    threading.Thread(target=outer._tcp.shutdown,
                                     daemon=True).start()

        class _Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._tcp = _Server((host, port), _Handler)
        self.host, self.port = self._tcp.server_address[:2]

    def serve_forever(self) -> None:
        self._started = True
        self._tcp.serve_forever(poll_interval=0.1)

    def serve_in_thread(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever,
                                  name="repro-serve-tcp", daemon=True)
        thread.start()
        return thread

    def close(self) -> None:
        """Stop accepting and release the socket.  Idempotent: a second
        call (or a close after a client-driven ``shutdown``) is a no-op
        instead of raising on the dead listener."""
        if self._closed:
            return
        self._closed = True
        if self._started:
            # shutdown() blocks on serve_forever's exit handshake; if the
            # accept loop never ran there is nothing to stop (and the
            # wait would never return)
            self._tcp.shutdown()
        try:
            self._tcp.server_close()
        except OSError:
            pass


def _an_object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"not an object: {value!r}")
    return value


def _batch_index(value, size: int) -> int:
    if type(value) is not int or not 0 <= value < size:
        raise ValueError(f"no request {value!r} in a batch of {size}")
    return value


class WireClient:
    """Minimal blocking JSON-lines client for a :class:`WireServer`.

    Connection loss anywhere in a conversation raises the structured
    :class:`WireConnectionLost` (endpoint + in-flight request id), never
    a bare ``JSONDecodeError``/``IndexError`` from an empty or truncated
    read; so does a reply that is not the one due or does not decode.
    ``close()``/``__exit__`` are idempotent and safe after the server has
    already gone away.
    """

    def __init__(self, host: str, port: int, timeout: float = 300.0):
        self.host, self.port = host, int(port)
        self._closed = False
        self._in_flight: object = "hello"
        self._chan = JsonLines.connect(host, port, timeout)
        self.hello = self._recv()
        if self.hello.get("schema") != WIRE_SCHEMA:
            raise RuntimeError(f"unexpected wire schema: {self.hello}")

    def _lost(self, why: str) -> WireConnectionLost:
        return WireConnectionLost(
            f"connection to {self.host}:{self.port} lost while "
            f"{self._in_flight!r} was in flight: {why}",
            host=self.host, port=self.port, in_flight=self._in_flight)

    def _send(self, obj: dict) -> None:
        if self._closed:
            raise self._lost("client already closed")
        self._in_flight = obj.get("id") or obj.get("op")
        try:
            self._chan.send(obj)
        except OSError as exc:
            raise self._lost(f"send failed: {exc}") from exc

    def _recv(self) -> dict:
        try:
            return self._chan.recv()
        except OSError as exc:     # EOF, partial, garbled, timeout
            raise self._lost(str(exc)) from exc

    def _call(self, obj: dict, reply: str) -> dict:
        """One request, one reply of op ``reply`` (an ``error`` reply
        raises ``RuntimeError``; any other op is a malformed reply)."""
        self._send(obj)
        msg = self._recv()
        if msg.get("op") == "error":
            raise RuntimeError(msg.get("message"))
        if msg.get("op") != reply:
            raise self._lost(f"malformed reply: {msg.get('op')!r} line "
                             f"where {reply!r} was due")
        return msg

    def _decode(self, msg: dict, field: str, decode):
        """``decode(msg[field])``; a reply that does not decode is as
        broken as a garbled line: :class:`WireConnectionLost`."""
        try:
            return decode(msg[field])
        except Exception as exc:  # noqa: BLE001 — any undecodable reply
            raise self._lost(f"malformed reply: {msg.get('op')!r} line "
                             f"with no valid {field!r}: {exc!r}") from exc

    def run(self, request, id: Optional[object] = None) -> RunResult:
        doc = request.to_json() if hasattr(request, "to_json") else request
        msg = self._call({"op": "run", "id": id, "request": doc}, "result")
        return self._decode(msg, "result", RunResult.from_json)

    def stream_batch(self, requests: Iterable,
                     id: Optional[object] = None):
        """Send a batch; yield streamed messages, ending in batch-done.

        Yields ``("result", index, RunResult)`` per completion, then
        ``("batch", None, BatchResult)``.  If the connection drops
        mid-stream the raised :class:`WireConnectionLost` fails fast
        (EOF, not the read timeout) and marks the split: ``completed``
        maps the batch indexes that produced results to them, ``pending``
        lists the indexes that were still in flight — a retrying caller
        resends exactly ``pending``, nothing twice.
        """
        docs = [r.to_json() if hasattr(r, "to_json") else r
                for r in requests]
        completed: dict = {}
        try:
            self._send({"op": "batch", "id": id, "requests": docs})
            while True:
                msg = self._recv()
                op = msg.get("op")
                if op == "result":
                    index = self._decode(msg, "index", lambda value:
                                         _batch_index(value, len(docs)))
                    result = self._decode(msg, "result",
                                          RunResult.from_json)
                    completed[index] = result
                    yield ("result", index, result)
                elif op == "batch-done":
                    yield ("batch", None, self._decode(
                        msg, "batch", BatchResult.from_json))
                    return
                elif op == "error":
                    raise RuntimeError(msg.get("message"))
        except WireConnectionLost as exc:
            exc.completed = dict(completed)
            exc.pending = [i for i in range(len(docs))
                           if i not in completed]
            raise

    def run_batch(self, requests: Iterable) -> BatchResult:
        batch = None
        for kind, _index, payload in self.stream_batch(requests):
            if kind == "batch":
                batch = payload
        return batch

    def stats(self) -> dict:
        return self._decode(self._call({"op": "stats"}, "stats"), "stats",
                            _an_object)

    def shutdown(self) -> None:
        try:
            self._send({"op": "shutdown"})
            self._recv()
        except WireConnectionLost:
            pass           # the point was to take the server down

    def close(self) -> None:
        """Idempotent; safe when the server is already gone."""
        if self._closed:
            return
        try:
            self._send({"op": "bye"})
        except WireConnectionLost:
            pass
        self._closed = True
        self._chan.close()

    def __enter__(self) -> "WireClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

"""JSON-lines wire protocol for the run service (stdio and TCP).

One message per line, each a JSON object with an ``"op"`` field.  The
request/result payloads are exactly the documents produced by
:meth:`repro.api.RunRequest.to_json` and
:meth:`repro.api.RunResult.to_json` — the wire format *is* the library
serialization (``repro-run/1``), not a third dialect.  Lines keep each
document's key order, so a result that crossed any number of hops has
the ``RunResult.canonical_bytes()`` of the in-process run.

Server -> client::

    {"op": "hello", "schema": "repro-serve/2", "workers": N}
    {"op": "result", "id": ..., "result": <run doc>}   # one per run
    {"op": "stats", "stats": {...}}
    {"op": "error", "message": "..."}
    {"op": "bye"}

Client -> server::

    {"op": "run", "id": ..., "request": <request doc>}
    {"op": "stats"}
    {"op": "shutdown"}          # stop the whole service
    {"op": "bye"}               # close just this connection

Each ``result`` echoes its ``run``'s ``id`` and comes as soon as that run
completes.  A host, on stdio (:func:`serve_stdio`) or TCP
(:class:`WireServer`), is the service's own loop
(:meth:`~repro.serve.service.Service.serve`) with each client a
:class:`Session` among its inputs; a pool worker answers in order on its
socketpair (:func:`serve_socket`).  One client reads replies off
:class:`JsonLines` ends: that same loop, over a pool's workers, a fleet's
hosts or :class:`~repro.serve.WireClient`'s one host.
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
import threading
from collections import deque
from typing import Optional

WIRE_SCHEMA = "repro-serve/2"

__all__ = ["WIRE_SCHEMA", "JsonLines", "Session", "serve_stdio",
           "serve_socket", "WireServer"]


class JsonLines:
    """The client end of one ``repro-serve/2`` conversation on a socket.

    :meth:`fill` is one ``recv`` — what a select loop calls when the
    socket is readable — and queues every complete line on ``inbox``;
    :meth:`recv` blocks for the next message.  EOF, a line cut short by
    EOF and a line that is not a JSON object raise ``ConnectionError``
    saying which; the lines that arrived whole before a garbled one stay
    queued, and every later :meth:`fill` raises again.
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
        self.sock.sendall((json.dumps(obj) + "\n").encode("utf-8"))

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


# ---------------------------------------------------------------------- #
# the host side: one client of a host's loop

class Session:
    """One client of a host: lines in off ``rfile``'s descriptor, replies
    out on the text stream ``wfile``.  ``pending`` counts its unanswered
    runs; ``ending`` is why it is read no further (``"bye"``,
    ``"shutdown"``, ``"eof"`` — also when a reply cannot be written)."""

    def __init__(self, rfile, wfile, sock: Optional[socket.socket] = None):
        self.rfile, self.wfile, self.sock = rfile, wfile, sock
        self.pending = 0
        self.ending: Optional[str] = None
        self._tail = b""

    @classmethod
    def over(cls, sock: socket.socket) -> "Session":
        """A client on an accepted TCP connection (closed with it)."""
        # result lines are small: none may wait on Nagle x delayed-ACK
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return cls(sock, sock.makefile("w", encoding="utf-8"), sock)

    def fileno(self) -> int:
        return self.rfile.fileno()

    def read(self) -> list:
        """The non-blank lines one read completes; at EOF (or a reset),
        the unterminated tail too, then ``None``."""
        try:
            data = os.read(self.fileno(), 1 << 16)
        except OSError:
            data = b""
        if data:
            *lines, self._tail = (self._tail + data).split(b"\n")
        else:
            lines, self._tail = [self._tail, None], b""
        return [line for line in lines if line is None or line.strip()]

    def send(self, obj: dict) -> None:
        try:
            self.wfile.write(json.dumps(obj) + "\n")
            self.wfile.flush()
        except OSError:
            self.ending = self.ending or "eof"

    def close(self) -> None:
        if self.sock is not None:
            with contextlib.suppress(OSError):   # a reply nobody reads
                self.wfile.close()
            self.sock.close()


def serve_stdio(service, stdin, stdout) -> str:
    """Serve one client on ``stdin``'s descriptor and the text stream
    ``stdout``; returns ``"bye"``, ``"shutdown"`` or ``"eof"``."""
    return service.serve(Session(stdin, stdout))


def serve_socket(service, sock: socket.socket) -> str:
    """A pool worker's side of its socketpair: greet, then answer ``run``
    and ``stats`` in order with ``service`` (an
    :class:`~repro.api.InProcess`) until ``bye`` or EOF."""
    chan = JsonLines(sock)
    try:
        chan.send({"op": "hello", "schema": WIRE_SCHEMA,
                   "workers": service.workers})
        while True:
            msg = chan.recv()
            if msg["op"] == "run":
                [(_index, result)] = service.stream([msg["request"]])
                chan.send({"op": "result", "id": msg["id"],
                           "result": result.to_json()})
            elif msg["op"] == "stats":
                chan.send({"op": "stats", "stats": service.stats()})
            else:
                return msg["op"]
    except OSError:
        return "eof"


class WireServer:
    """The TCP front of one service: :meth:`serve_forever` runs the
    service's own loop with the listener and each accepted connection
    among its inputs — no thread per connection, no lock.  A client's
    ``shutdown`` stops it; so does :meth:`close`, from any thread."""

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self._serving: Optional[threading.Thread] = None
        self._closed = False

    def serve_forever(self) -> str:
        self._serving = self._serving or threading.current_thread()
        return self.service.serve(listener=self._listener)

    def serve_in_thread(self) -> threading.Thread:
        self._serving = threading.Thread(target=self.serve_forever,
                                         name="repro-serve-tcp", daemon=True)
        self._serving.start()
        return self._serving

    def close(self) -> None:
        """Stop serving and release the socket.  Idempotent; safe after a
        client's ``shutdown`` or when ``serve_forever`` never ran."""
        if self._closed:
            return
        self._closed = True
        serving = self._serving
        while serving not in (None, threading.current_thread()) \
                and serving.is_alive():
            self.service.stop_serving()   # a no-op until the loop starts
            serving.join(0.01)
        self._listener.close()

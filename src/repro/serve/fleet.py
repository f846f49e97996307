"""`FleetService` — the multi-host front tier over ``repro-serve/1``.

One :class:`~repro.serve.RunService` scales to one host's cores.  The
fleet tier is the next rung: it presents the same service surface
(``stream`` / ``run_batch`` / ``stats`` / ``counters`` /
``live_workers`` / ``workers`` / ``close``) but dispatches each
:class:`~repro.api.RunRequest` to one of N remote ``repro serve --tcp``
hosts through :class:`~repro.serve.wire.WireClient`.

Placement is FIFO off the same :class:`~repro.serve.scheduler.Backlog`
the pool uses, with the one real difference that a host's capacity is
its remote pool size: work ships in per-host **chunks** of up to the
host's worker count, one in-flight chunk per host, streamed back per
completion — so each remote pool stays saturated while the rest of the
backlog stays loose for whichever host frees up first.  This module is
the socket transport under the backlog.

What a network tier needs that the in-process pool didn't:

* **health probes** — :meth:`probe` round-trips a ``stats`` op per host;
  dead hosts are re-probed (and re-admitted) at the next batch;
* **bounded retry with backoff** — connect/send failures retry
  ``retries`` times with exponential backoff before the host is declared
  lost;
* **requeue-at-head** — when a host dies mid-chunk, the chunk's
  not-yet-completed requests go back to the *head* of the fleet backlog
  (mirroring the pool's dead-worker requeue): never a silent drop, never
  a hang, and nothing runs twice because
  :meth:`WireClient.stream_batch` marks exactly which indexes completed;
* **structured exhaustion** — when every host is gone (or admission is
  refused) outstanding requests fail fast as ``error_kind="HostLost"``
  (``"Rejected"``) results, not exceptions and not timeouts.

Counters surface on ``stats()["fleet"]`` (per-host ``runs``/``requeues``,
fleet-wide ``requeues``/``hosts_lost``/``retries``) and on every
:class:`BatchResult` — where, at this level, ``crashes`` counts *host
losses* during the batch.

Use it like the pool::

    with FleetService(["127.0.0.1:7591", "127.0.0.1:7592"]) as fleet:
        batch = fleet.run_batch(requests)     # request order + counters
        for idx, res in fleet.stream(requests):
            ...                               # completion order
"""

from __future__ import annotations

import queue as _queue
import threading
import time as _time
from typing import Iterable, List, Optional, Tuple

from repro.api.types import BatchResult, failure_result
from repro.serve.scheduler import Backlog
from repro.serve.service import collect_batch
from repro.serve.wire import WireClient, WireConnectionLost

__all__ = ["FleetService", "parse_host", "DEFAULT_RETRIES",
           "DEFAULT_BACKOFF_S"]

#: connect/send attempts beyond the first before a host is declared lost
DEFAULT_RETRIES = 3

#: first retry delay; doubles per attempt, capped at DEFAULT_BACKOFF_MAX_S
DEFAULT_BACKOFF_S = 0.05
DEFAULT_BACKOFF_MAX_S = 2.0

_WAIT_S = 0.05     # backlog re-check period while a host has no work


def parse_host(spec) -> Tuple[str, int]:
    """``"HOST:PORT"`` (or a ``(host, port)`` pair) -> ``(host, port)``."""
    if isinstance(spec, (tuple, list)) and len(spec) == 2:
        return str(spec[0]), int(spec[1])
    host, sep, port = str(spec).rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(f"host spec {spec!r} is not 'HOST:PORT'")
    return host, int(port)


class _Host:
    """One remote ``repro serve --tcp`` endpoint and its fleet-side state."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.label = f"{host}:{port}"
        self.client: Optional[WireClient] = None
        self.workers = 0               # remote pool size, from hello
        self.alive = False
        self.runs = 0                  # requests this host retired
        self.requeues = 0              # requests requeued off this host
        self.reconnects = 0            # successful revivals
        self.last_rtt_ms: Optional[float] = None

    def snapshot(self) -> dict:
        return {"alive": self.alive, "workers": self.workers,
                "runs": self.runs, "requeues": self.requeues,
                "reconnects": self.reconnects,
                "last_rtt_ms": self.last_rtt_ms}


class FleetService:
    """Shard batches across N remote ``repro serve --tcp`` hosts.

    ``hosts`` is a list of ``"HOST:PORT"`` specs (or pairs).  At least
    one host must be reachable at construction (each gets the full
    bounded-retry treatment); unreachable ones are kept on the roster
    and re-probed before every batch.

    The service surface matches :class:`~repro.serve.RunService` — the
    wire layer (``python -m repro fleet``) and
    :func:`repro.eval.parallel.run_requests` dispatch against either
    interchangeably.
    """

    def __init__(self, hosts: Iterable, timeout: float = 300.0,
                 retries: int = DEFAULT_RETRIES,
                 backoff: float = DEFAULT_BACKOFF_S,
                 max_backlog: Optional[int] = None):
        specs = [parse_host(h) for h in hosts]
        if not specs:
            raise ValueError("FleetService needs at least one host")
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff = backoff
        self._hosts = [_Host(h, p) for h, p in specs]
        # guards the backlog: host threads take/retire/requeue under it
        self._cond = threading.Condition()
        self._backlog = Backlog(max_backlog)
        self._hosts_lost = 0
        self._retry_attempts = 0       # failed connect/send attempts
        self._closed = False
        self._done_q: _queue.Queue = _queue.Queue()   # one per stream()
        for host in self._hosts:
            self._connect(host)
        if not self._live():
            raise ConnectionError(
                "no fleet host reachable: "
                + ", ".join(h.label for h in self._hosts))

    # ------------------------------------------------------------------ #
    # connection management: probes, bounded retry, backoff

    def _live(self) -> List[_Host]:
        return [h for h in self._hosts if h.alive]

    def _connect(self, host: _Host) -> bool:
        """Bounded retry-with-backoff connect; marks the host's fate."""
        delay = self.backoff
        for attempt in range(self.retries + 1):
            if self._closed:
                return False
            try:
                t0 = _time.perf_counter()
                client = WireClient(host.host, host.port,
                                    timeout=self.timeout)
                host.last_rtt_ms = round(
                    1000.0 * (_time.perf_counter() - t0), 3)
                if host.client is not None:
                    host.reconnects += 1
                host.client = client
                host.workers = int(client.hello.get("workers", 1)) or 1
                host.alive = True
                return True
            except (OSError, ConnectionError, RuntimeError):
                self._retry_attempts += 1
                if attempt < self.retries:
                    _time.sleep(min(delay, DEFAULT_BACKOFF_MAX_S))
                    delay *= 2
        host.alive = False
        host.client = None
        return False

    def probe(self) -> dict:
        """Health-check every host: a ``stats`` round-trip per live host,
        a (bounded-retry) reconnect attempt per dead one.  Returns the
        per-host health document."""
        for host in self._hosts:
            if host.alive and host.client is not None:
                try:
                    t0 = _time.perf_counter()
                    host.client.stats()
                    host.last_rtt_ms = round(
                        1000.0 * (_time.perf_counter() - t0), 3)
                    continue
                except (ConnectionError, OSError, RuntimeError):
                    self._drop_host(host)
            self._connect(host)
        return {h.label: h.snapshot() for h in self._hosts}

    def _drop_host(self, host: _Host) -> None:
        """Forget a dead host's connection."""
        host.alive = False
        if host.client is not None:
            host.client.close()      # idempotent, safe on a dead socket
            host.client = None

    # ------------------------------------------------------------------ #
    # per-host dispatch: chunks out, completions in, requeue on loss

    def _take_chunk(self, host: _Host) -> Optional[list]:
        """Block until the backlog has work for this host (up to its
        remote pool size), or the batch is retired."""
        with self._cond:
            while True:
                if not self._backlog.outstanding or self._closed \
                        or not host.alive:
                    self._cond.notify_all()
                    return None
                chunk = self._backlog.take(max(1, host.workers))
                if chunk:
                    return chunk
                self._cond.wait(_WAIT_S)

    def _complete(self, seq: int, result) -> None:
        with self._cond:
            item = self._backlog.retire(seq)
            if item is not None:
                self._done_q.put((item[0], result))
                self._cond.notify_all()

    def _host_failure(self, host: _Host, lost: list) -> None:
        """A chunk died with its host: requeue-at-head, retry, or give up.

        ``lost`` is the chunk's not-yet-completed seqs, in chunk order.
        They go back to the *head* of the backlog (the pool's dead-worker
        contract, one level up) so another host picks them up first —
        never a silent drop.  The host then gets one bounded-retry
        reconnect; failure makes the loss permanent, and if no host
        remains the whole backlog fails fast as ``HostLost`` results.
        """
        with self._cond:
            self._drop_host(host)
            host.requeues += self._backlog.requeue(lost)
            self._cond.notify_all()
        if not self._closed and self._connect(host):
            with self._cond:
                self._cond.notify_all()
            return
        with self._cond:
            self._hosts_lost += 1
            if not self._live():
                self._fail_outstanding(
                    f"no fleet host remains (last lost: {host.label} "
                    f"after {self.retries} retry(ies))")
            self._cond.notify_all()

    def _fail_outstanding(self, error: str) -> None:
        """Fail every un-retired request as a structured HostLost (locked
        by the caller)."""
        for index, doc in self._backlog.drain():
            self._done_q.put((index, failure_result(doc, error,
                                                    "HostLost")))

    def _host_loop(self, host: _Host) -> None:
        """One thread per host: pull chunks, stream them over the wire."""
        while True:
            chunk = self._take_chunk(host)
            if chunk is None:
                return
            seqs = [seq for seq, _item in chunk]
            completed: set = set()
            try:
                for kind, i, payload in host.client.stream_batch(
                        [doc for _seq, (_index, doc) in chunk]):
                    if kind == "result":
                        completed.add(seqs[i])
                        host.runs += 1
                        self._complete(seqs[i], payload)
            except (WireConnectionLost, ConnectionError, OSError,
                    RuntimeError):
                self._host_failure(
                    host, [s for s in seqs if s not in completed])

    # ------------------------------------------------------------------ #
    # the service surface (the same seven names as RunService)

    def stream(self, requests: Iterable):
        """Yield ``(index, RunResult)`` in completion order.

        Single-consumer, like :meth:`RunService.stream` (the wire layer
        serializes access).  Dead hosts are re-probed before the batch;
        requests that will not run (``BadRequest``, ``Rejected``) yield
        first, exactly as at the pool.
        """
        if self._closed:
            raise RuntimeError("FleetService is closed")
        for host in self._hosts:
            if not host.alive:
                self._connect(host)
        if not self._live():
            raise ConnectionError(
                "no fleet host reachable: "
                + ", ".join(h.label for h in self._hosts))
        threads: list = []
        try:
            with self._cond:
                refused = self._backlog.admit_requests(requests)
                expected = self._backlog.outstanding
            threads = [threading.Thread(target=self._host_loop,
                                        args=(host,),
                                        name=f"repro-fleet-{host.label}",
                                        daemon=True)
                       for host in self._live()]
            for t in threads:
                t.start()
            yield from refused
            emitted = 0
            while emitted < expected:
                try:
                    index, result = self._done_q.get(timeout=1.0)
                except _queue.Empty:
                    # watchdog: every host thread gone with work left
                    # can only mean an unexpected tear-down — fail fast
                    # rather than hang (the HostLost contract)
                    if not any(t.is_alive() for t in threads):
                        with self._cond:
                            self._fail_outstanding(
                                "fleet dispatch stopped with requests "
                                "outstanding")
                    continue
                yield index, result
                emitted += 1
        finally:
            with self._cond:
                self._backlog.clear()
                self._cond.notify_all()
            for t in threads:
                t.join(timeout=5.0)
            self._done_q = _queue.Queue()

    def run_batch(self, requests: Iterable) -> BatchResult:
        """Run a batch; return ordered results plus fleet counters."""
        return collect_batch(self, requests)

    def counters(self) -> dict:
        """Monotonic counters, in the wire layer's shape — ``crashes``
        counts *host losses* at this level."""
        return {"crashes": self._hosts_lost, **self._backlog.counters()}

    def live_workers(self) -> int:
        """Total remote workers behind the live hosts."""
        return sum(h.workers for h in self._live())

    @property
    def workers(self) -> int:
        return self.live_workers()

    def stats(self) -> dict:
        """Local fleet counters (no wire round-trips; :meth:`probe` does
        those)."""
        return {
            "workers": self.live_workers(),
            "crashes": self._hosts_lost,
            "fleet": {
                **self._backlog.stats(),
                "hosts": {h.label: h.snapshot() for h in self._hosts},
                "live_hosts": len(self._live()),
                "requeues": self._backlog.requeues,
                "hosts_lost": self._hosts_lost,
                "retries": self._retry_attempts,
            },
        }

    def close(self) -> None:
        """Close every host connection (idempotent; the remote services
        keep running — a fleet front going away must not take its hosts
        with it)."""
        if self._closed:
            return
        self._closed = True
        with self._cond:
            self._cond.notify_all()
        for host in self._hosts:
            self._drop_host(host)

    def __enter__(self) -> "FleetService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

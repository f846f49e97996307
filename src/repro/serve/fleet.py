"""`FleetService` — the multi-host front tier over ``repro-serve/1``, and
`WireClient`, a fleet of one host.

One :class:`~repro.serve.RunService` scales to one host's cores.  The
fleet tier is the next rung: the same
:class:`~repro.serve.service.Service` loop and surface (``stream`` /
``run_batch`` / ``stats`` / ``counters`` / ``live_workers`` /
``workers`` / ``close``), but its targets are N remote ``repro serve
--port PORT`` hosts on TCP sockets instead of local workers on socketpairs —
read by that one loop, no thread per host.

Placement is FIFO off the same :class:`~repro.serve.scheduler.Backlog`,
with the one real difference that a host's capacity is its remote pool
size (its ``hello``'s ``workers``): work ships in per-host **chunks** of
up to that many requests, one in-flight chunk per host, streamed back
per completion — so each remote pool stays saturated while the rest of
the backlog stays loose for whichever host frees up first.

What a network tier needs that the pool didn't:

* **health probes** — :meth:`FleetService.probe` round-trips a ``stats``
  op per host; dead hosts are re-probed (and re-admitted) at the next
  batch;
* **bounded retry with backoff** — a failed connect is retried
  ``retries`` times with exponential backoff before the host is declared
  lost;
* **requeue-at-head** — when a host dies mid-chunk, the chunk's
  not-yet-completed requests go back to the *head* of the backlog (a
  host's loss means "someone else can run these", where a worker's means
  "this request kills workers"): never a silent drop, never a hang, and
  nothing runs twice because the backlog retires each seq exactly once.
  A request goes back once; lost again, it fails as ``HostLost``.
  The host then gets one bounded reconnect, which blocks dispatch for at
  most the backoff sum (0.35 s at the defaults) while other hosts'
  results wait in their socket buffers;
* **structured exhaustion** — when every host is gone (or admission is
  refused) outstanding requests fail fast as ``error_kind="HostLost"``
  (``"Rejected"``) results, not exceptions and not timeouts.

Counters surface on ``stats()["fleet"]`` (per-host ``runs``/``requeues``,
fleet-wide ``requeues``/``hosts_lost``/``retries``) and on every
:class:`BatchResult` — where, at this level, ``crashes`` counts *host
losses* during the batch.

:class:`WireClient`, the client of one ``repro serve --port PORT``, is a
fleet of that host plus :meth:`WireClient.run`: a loss means the same.
"""

from __future__ import annotations

import time as _time
from typing import Iterable, Optional, Tuple

from repro.api.types import RunResult
from repro.serve.service import Service, Target
from repro.serve.wire import JsonLines

__all__ = ["FleetService", "WireClient", "parse_host", "DEFAULT_RETRIES",
           "DEFAULT_BACKOFF_S"]

#: connect attempts beyond the first before a host is declared lost
DEFAULT_RETRIES = 3

#: first retry delay; doubles per attempt, capped at DEFAULT_BACKOFF_MAX_S
DEFAULT_BACKOFF_S = 0.05
DEFAULT_BACKOFF_MAX_S = 2.0


def parse_host(spec) -> Tuple[str, int]:
    """``"HOST:PORT"`` (or a ``(host, port)`` pair) -> ``(host, port)``."""
    if isinstance(spec, (tuple, list)) and len(spec) == 2:
        return str(spec[0]), int(spec[1])
    host, sep, port = str(spec).rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(f"host spec {spec!r} is not 'HOST:PORT'")
    return host, int(port)


class _Host(Target):
    """One remote ``repro serve --port PORT`` endpoint; on the roster for the
    fleet's whole life, a live target while ``chan`` is connected."""

    def __init__(self, host: str, port: int):
        super().__init__(f"{host}:{port}", requeue=True)
        self.host, self.port = host, port
        self.connects = 0
        self.last_rtt_ms: Optional[float] = None

    def snapshot(self) -> dict:
        return {"alive": self.chan is not None, "workers": self.capacity,
                "runs": self.runs, "requeues": self.requeues,
                "reconnects": max(0, self.connects - 1),
                "last_rtt_ms": self.last_rtt_ms}


class FleetService(Service):
    """Shard batches across N remote ``repro serve --port PORT`` hosts.

    ``hosts`` is a list of ``"HOST:PORT"`` specs (or pairs).  At least
    one host must be reachable at construction (each gets the full
    bounded-retry treatment); unreachable ones are kept on the roster
    and re-probed before every batch.  ``timeout`` bounds a connect and
    a silence mid-batch.

    The service surface matches :class:`~repro.serve.RunService` — the
    wire layer (``python -m repro fleet``) and
    :func:`repro.eval.parallel.run_requests` dispatch against either
    interchangeably.
    """

    exhausted = ("HostLost", "no fleet host remains")

    def __init__(self, hosts: Iterable, timeout: float = 300.0,
                 retries: int = DEFAULT_RETRIES,
                 max_backlog: Optional[int] = None):
        super().__init__(max_backlog=max_backlog, timeout=timeout)
        self._hosts = [_Host(*parse_host(h)) for h in hosts]
        if not self._hosts:
            raise ValueError("FleetService needs at least one host")
        self.retries = max(0, int(retries))
        self._retry_attempts = 0       # failed connect attempts
        self._before_batch()

    # ------------------------------------------------------------------ #
    # connection management: probes, bounded retry, backoff

    def _connect(self, host: _Host) -> bool:
        """Bounded retry-with-backoff connect; a host that answers with
        its ``hello`` becomes a live target."""
        delay = DEFAULT_BACKOFF_S
        for attempt in range(self.retries + 1):
            if self._closed:
                break
            try:
                t0 = _time.perf_counter()
                host.chan = JsonLines.connect(host.host, host.port,
                                              self.timeout)
                self._absorb(host, host.chan.recv())   # hello: capacity
            except (OSError, ValueError):
                host.close()
                self._retry_attempts += 1
                if attempt < self.retries:
                    _time.sleep(min(delay, DEFAULT_BACKOFF_MAX_S))
                    delay *= 2
            else:
                host.last_rtt_ms = round(
                    1000.0 * (_time.perf_counter() - t0), 3)
                host.connects += 1
                self._targets.append(host)
                return True
        return False

    def _revive(self) -> None:
        for host in self._hosts:
            if host.chan is None:
                self._connect(host)

    def _before_batch(self) -> None:
        """Re-probe the dead hosts; some host must be reachable."""
        self._revive()
        if not self._targets:
            raise ConnectionError(
                "no fleet host reachable: "
                + ", ".join(h.label for h in self._hosts))

    def _replace(self, host: Target) -> None:
        """A lost host gets one bounded reconnect (which re-lists it);
        failure makes the loss permanent."""
        if not self._connect(host):
            self._crashes += 1

    def probe(self) -> dict:
        """Health-check every host: a ``stats`` round-trip per live host,
        a (bounded-retry) reconnect attempt per dead one.  Returns the
        per-host health document."""
        for host in list(self._targets):
            try:
                t0 = _time.perf_counter()
                self._ask(host, "stats")
                host.last_rtt_ms = round(
                    1000.0 * (_time.perf_counter() - t0), 3)
            except OSError:
                self._targets.remove(host)
                host.close()
        self._revive()
        return {h.label: h.snapshot() for h in self._hosts}

    # ------------------------------------------------------------------ #
    # the fleet's shape of the service surface

    @property
    def workers(self) -> int:
        return self.live_workers()

    def stats(self) -> dict:
        """Local fleet counters (no wire round-trips; :meth:`probe` does
        those)."""
        return {
            "workers": self.live_workers(),
            "crashes": self._crashes,
            "fleet": {
                **self._backlog.stats(),
                "hosts": {h.label: h.snapshot() for h in self._hosts},
                "live_hosts": len(self._targets),
                "requeues": self._backlog.requeues,
                "hosts_lost": self._crashes,
                "retries": self._retry_attempts,
            },
        }


class WireClient(FleetService):
    """A fleet of one :class:`~repro.serve.WireServer` host, plus
    :meth:`run`.  Every request gets exactly one result: losing the host
    mid-call is a ``HostLost`` result; a call that finds it unreachable
    raises ``ConnectionError``, as the fleet's does."""

    def __init__(self, host: str, port: int, timeout: float = 300.0):
        super().__init__([(host, port)], timeout=timeout)

    def run(self, request) -> RunResult:
        """One request (a :class:`RunRequest` or its doc) -> its result."""
        return self.run_batch([request]).results[0]

"""`repro.serve` — the persistent worker-pool run service.

Library entry point::

    from repro.serve import RunService
    with RunService(workers=4) as svc:
        batch = svc.run_batch(requests)       # BatchResult, request order
        for idx, res in svc.stream(requests): # completion order
            ...

CLI entry point: ``python -m repro serve`` (stdio or TCP JSON-lines —
see :mod:`repro.serve.wire` for the protocol): the same loop, with each
client one more input.

One level up, :class:`FleetService` (``python -m repro fleet``) presents
the same surface but shards batches across several remote ``repro serve
--port PORT`` hosts — see :mod:`repro.serve.fleet`; :class:`WireClient`
is a fleet of one such host.  All three are the one
:class:`~repro.serve.service.Service` loop — oldest work first off a
:class:`~repro.serve.scheduler.Backlog`, to targets that all speak
``repro-serve/2`` on a socket: pool workers on socketpairs, hosts on TCP.
"""

from repro.serve.fleet import FleetService, WireClient, parse_host
from repro.serve.service import DEFAULT_WORKERS, RunService
from repro.serve.wire import WIRE_SCHEMA, WireServer, serve_stdio
from repro.serve.worker import DEFAULT_RUNNER

__all__ = [
    "RunService",
    "FleetService",
    "parse_host",
    "DEFAULT_WORKERS",
    "DEFAULT_RUNNER",
    "WIRE_SCHEMA",
    "WireClient",
    "WireServer",
    "serve_stdio",
]

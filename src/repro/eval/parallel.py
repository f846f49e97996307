"""One helper every evaluation harness shares: run requests, maybe in
parallel, return results **in request order**.

``repro sweep``, ``repro chaos``, ``repro racecheck`` and ``repro
compare`` all retire grids of independent :class:`~repro.api.RunRequest`
runs.  :func:`run_requests` is their common submission path:

* ``jobs <= 1``, no ``service``, no ``fleet`` — the historical serial
  loop: one in-process :func:`~repro.api.execute` call after another
  through a single shared :class:`~repro.api.ProgramCache`.  Bit-for-bit
  the behaviour the harnesses had before they learned ``--jobs``;
* ``fleet`` (a list of ``"HOST:PORT"`` specs) — a batch through a
  temporary :class:`~repro.serve.FleetService` sharding across remote
  ``repro serve --tcp`` hosts;
* otherwise — a batch through a :class:`~repro.serve.RunService` worker
  pool (a caller-supplied one, or a temporary ``workers=jobs`` pool torn
  down afterwards).  Both services stream completions in whatever order
  the scheduler produces; this helper reassembles them into request
  order, so a harness's rows/cells/tables are deterministic regardless
  of which worker — or host — finished first.

Results are the same ``repro-run/1`` documents either way — the service
path is bit-identical on the fingerprint contract, which is exactly what
``tests/test_scheduling.py`` and the CI parallel-sweep smoke assert.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, List, Optional

from repro.api.execute import ProgramCache, execute
from repro.api.types import RunRequest, RunResult

__all__ = ["run_requests", "service_for"]


def _describe(request: RunRequest) -> str:
    return f"{request.app}/{request.variant} n={request.nprocs}"


@contextlib.contextmanager
def service_for(jobs: int = 1, service=None, fleet: Optional[list] = None):
    """The caller's ``service`` if given (left open), else a temporary
    :class:`~repro.serve.FleetService` over ``fleet`` or a ``workers=jobs``
    :class:`~repro.serve.RunService`, closed on exit."""
    if service is not None:
        yield service
    elif fleet:
        from repro.serve import FleetService
        with FleetService(fleet) as own:
            yield own
    else:
        from repro.serve import RunService
        with RunService(workers=jobs) as own:
            yield own


def run_requests(requests: Iterable[RunRequest],
                 jobs: int = 1,
                 service=None,
                 fleet: Optional[list] = None,
                 progress: Optional[Callable[[str], None]] = None,
                 describe: Optional[Callable[[RunRequest], str]] = None,
                 raise_on_error: bool = True) -> List[RunResult]:
    """Run ``requests``; return their results in request order.

    ``service`` takes precedence over ``fleet`` and ``jobs`` (reuse an
    existing pool — e.g. the throughput bench measures a sweep through
    its own service); ``fleet`` (``"HOST:PORT"`` specs) spins up a
    temporary :class:`~repro.serve.FleetService` over remote hosts;
    ``jobs > 1`` spins up a temporary :class:`~repro.serve.RunService`.
    ``progress`` is called with ``describe(request)`` per run — before
    each run when serial, on completion when parallel (completion order).
    ``raise_on_error=True`` turns any structured ``ok=False`` result
    into a ``RuntimeError`` naming the run, matching the serial path
    where execution errors propagate as exceptions; pass ``False`` for
    harnesses that record failures instead (chaos).
    """
    requests = list(requests)
    describe = describe or _describe

    if service is None and not fleet and jobs <= 1:
        cache = ProgramCache()
        results = []
        for request in requests:
            if progress:
                progress(describe(request))
            results.append(execute(request, cache))
    else:
        results = [None] * len(requests)
        with service_for(jobs, service, fleet) as svc:
            for index, result in svc.stream(requests):
                results[index] = result
                if progress:
                    progress(describe(requests[index]))

    if raise_on_error:
        for request, result in zip(requests, results):
            if not result.ok:
                raise RuntimeError(
                    f"{describe(request)} failed in the worker pool: "
                    f"{result.error_kind}: {result.error}")
    return results

"""Requests in, results out, one tier switch.

Every evaluation harness — ``repro sweep``, ``chaos``, ``racecheck``,
``compare``/``figures`` — is the same three steps: build
:class:`~repro.api.RunRequest` objects, hand them to
:func:`run_requests`, judge the :class:`~repro.api.RunResult` objects.
This module is the only place under ``repro.eval`` that chooses *where*
requests run (:func:`service_for`): in this process
(:class:`~repro.api.InProcess` — the same executor a pool worker
serves), through a :class:`~repro.serve.RunService` worker pool, or
sharded across remote ``repro serve --tcp`` hosts by a
:class:`~repro.serve.FleetService`.

The services stream completions in scheduler order; results are
reassembled into request order, so a harness's rows/cells/tables do not
depend on which worker — or host — finished first.  A run that raises
becomes the same structured ``ok=False`` result at every tier (it is
made in one place, :meth:`InProcess.stream`), and every tier's results
agree on the ``fingerprint()`` contract, so a harness document is the
same whichever tier produced it (asserted by
``tests/test_scheduling.py``, ``test_faults.py``, ``test_racecheck.py``
and the CI ``--jobs``/``--fleet`` smokes).
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, List, Optional

from repro.api.execute import InProcess
from repro.api.types import RunRequest, RunResult

__all__ = ["run_requests", "service_for"]


def _describe(request: RunRequest) -> str:
    return f"{request.app}/{request.variant} n={request.nprocs}"


@contextlib.contextmanager
def service_for(jobs: int = 1, service=None, fleet: Optional[list] = None):
    """The tier switch: the caller's ``service`` if given (left open),
    else a temporary :class:`~repro.serve.FleetService` over ``fleet``, a
    ``workers=jobs`` :class:`~repro.serve.RunService` (both closed on
    exit), or — ``jobs <= 1`` — this process.  Hold it across several
    :func:`run_requests` calls (``service=``) to keep them on one tier
    and one set of warm caches."""
    if service is not None:
        yield service
    elif fleet:
        from repro.serve import FleetService
        with FleetService(fleet) as own:
            yield own
    elif jobs > 1:
        from repro.serve import RunService
        with RunService(workers=jobs) as own:
            yield own
    else:
        yield InProcess()


def run_requests(requests: Iterable[RunRequest],
                 jobs: int = 1,
                 service=None,
                 fleet: Optional[list] = None,
                 progress: Optional[Callable[[str], None]] = None,
                 describe: Optional[Callable[[RunRequest], str]] = None,
                 raise_on_error: bool = True) -> List[RunResult]:
    """Run ``requests``; return their results in request order.

    ``jobs``/``service``/``fleet`` pick the tier (:func:`service_for`;
    ``service`` takes precedence — reuse an existing pool).
    ``progress`` is called with ``describe(request)`` as each run
    completes (request order in-process, completion order through a
    service).  A run that raises yields a structured ``ok=False`` result
    (``error_kind`` = the exception class name) at every tier;
    ``raise_on_error=True`` turns the first such result into a
    ``RuntimeError`` naming the run, ``False`` hands them back for
    harnesses that record failures instead (chaos).
    """
    requests = list(requests)
    if not requests:
        return []                # no pool to spawn, no host to reach
    describe = describe or _describe
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
                    f"{describe(request)} failed: "
                    f"{result.error_kind}: {result.error}")
    return results

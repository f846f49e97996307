"""Requests in, results out, on the caller's tier.

Every evaluation harness — ``repro sweep``, ``chaos``, ``racecheck``,
``compare``/``reproduce`` — builds :class:`~repro.api.RunRequest`
objects, hands them to :func:`run_requests` and judges the
:class:`~repro.api.RunResult` objects.  *Where* they run is one
argument, ``service``, that every harness takes and passes down:
``None`` is this process (one :class:`~repro.api.InProcess`, the
executor a pool worker serves, for the whole harness call); otherwise a
:class:`~repro.serve.RunService` pool or a
:class:`~repro.serve.FleetService` over ``repro serve --port PORT``
hosts, which the caller opens and closes (``repro.cli`` for
``--jobs``/``--fleet``).

Results come back in request order whichever worker or host finished
first, a run that raises is the same ``ok=False`` result at every tier
(made in one place, :meth:`InProcess.stream`), and every tier hands back
the in-process ``canonical_bytes()``, so a harness document does not
depend on the tier (``tests/test_run_identity.py``, ``test_scheduling.py``,
``test_faults.py``, ``test_racecheck.py`` and the CI sweep ``cmp``).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from repro.api.execute import InProcess
from repro.api.types import RunRequest, RunResult

__all__ = ["run_requests"]


def _describe(request: RunRequest) -> str:
    return f"{request.app}/{request.variant} n={request.nprocs}"


def run_requests(requests: Iterable[RunRequest],
                 service=None,
                 progress: Optional[Callable[[str], None]] = None,
                 describe: Optional[Callable[[RunRequest], str]] = None,
                 raise_on_error: bool = True) -> List[RunResult]:
    """Run ``requests`` on ``service`` (``None``: a fresh
    :class:`~repro.api.InProcess`); return their results in request order.

    ``progress`` is called with ``describe(request)`` as each run
    completes (request order in-process, completion order through a
    service).  A run that raises yields a structured ``ok=False`` result
    (``error_kind`` = the exception class name) at every tier;
    ``raise_on_error=True`` turns the first such result into a
    ``RuntimeError`` naming the run, ``False`` hands them back for
    harnesses that record failures instead (chaos).
    """
    requests = list(requests)
    describe = describe or _describe
    results = [None] * len(requests)
    service = service if service is not None else InProcess()
    for index, result in service.stream(requests):
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

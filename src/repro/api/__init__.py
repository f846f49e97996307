"""``repro.api`` — the unified, typed run API.

The one surface between "what to run" and "how it ran":

* :class:`RunRequest` / :class:`RunResult` / :class:`BatchResult` —
  frozen, serializable (``repro-run/1``) value types
  (:mod:`repro.api.types`),
* :func:`execute` and :class:`ProgramCache` — the single
  execution path with compiled-program caching, and the coherent
  ``readback`` it can append to a DSM run (:mod:`repro.api.execute`),
* :class:`InProcess` — the in-process tier: requests streamed through
  one cache, exceptions turned into structured failures; what every
  harness runs on at ``--jobs 1`` and what every pool worker serves,
* :mod:`repro.api.registry` — the consolidated app/variant registry the
  CLI, harnesses and validators all share.

Quick start::

    from repro.api import RunRequest, execute
    print(execute(RunRequest("jacobi", "spf", nprocs=8, preset="test")).row())

For batches, prefer the worker-pool service (:mod:`repro.serve`)::

    from repro.api import RunRequest
    from repro.serve import RunService
    with RunService(workers=4) as svc:
        batch = svc.run_batch([RunRequest("jacobi", "spf", preset="test"),
                               RunRequest("igrid", "spf", preset="test")])

See ``docs/API.md`` for the full type and wire-protocol reference.
"""

from repro.api import registry
from repro.api.execute import (InProcess, ProgramCache, execute,
                               execute_with_arrays)
from repro.api.registry import (APPS, DSM_VARIANTS, FIGURE_VARIANTS,
                                IRREGULAR_APPS, MODELED_VARIANTS, PRESETS,
                                REGULAR_APPS, VARIANTS, AppInfo, VariantInfo)
from repro.api.types import (RUN_SCHEMA, BatchResult, RunRequest, RunResult,
                             dsm_stats_from_doc, dsm_stats_to_doc,
                             fault_plan_from_doc, fault_plan_to_doc,
                             machine_from_doc, machine_to_doc)

__all__ = [
    "RUN_SCHEMA",
    "RunRequest",
    "RunResult",
    "BatchResult",
    "ProgramCache",
    "InProcess",
    "execute",
    "execute_with_arrays",
    "registry",
    "APPS",
    "REGULAR_APPS",
    "IRREGULAR_APPS",
    "VARIANTS",
    "DSM_VARIANTS",
    "MODELED_VARIANTS",
    "FIGURE_VARIANTS",
    "PRESETS",
    "AppInfo",
    "VariantInfo",
    "dsm_stats_to_doc",
    "dsm_stats_from_doc",
    "fault_plan_to_doc",
    "fault_plan_from_doc",
    "machine_to_doc",
    "machine_from_doc",
]

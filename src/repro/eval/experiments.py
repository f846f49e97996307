"""Run any application in any of the paper's variants and collect metrics.

Variants
--------
``seq``      sequential oracle (Table 1 baseline; defines speedup = 1)
``spf``      compiler-generated shared memory (SPF -> TreadMarks)
``tmk``      hand-coded TreadMarks shared memory
``xhpf``     compiler-generated message passing (XHPF)
``pvme``     hand-coded message passing (PVMe)
``spf_opt``  SPF plus the paper's hand optimizations for that application
``spf_old``  SPF over the *original* (8(n-1)-message) fork-join interface
``xhpf_ie``  XHPF with CHAOS-style inspector-executor schedules (extension)

This module is a thin facade over :mod:`repro.api` — the typed
``RunRequest``/``RunResult`` layer that the CLI, the run service
(:mod:`repro.serve`) and every harness share: :func:`run_all_variants`
builds the requests and hands them to
:func:`repro.eval.parallel.run_requests` (the sequential oracle runs
first, once per app).
"""

from __future__ import annotations

from typing import Optional

from repro.api.registry import FIGURE_VARIANTS, VARIANTS
from repro.api.types import RunRequest
from repro.eval.parallel import run_requests, service_for

__all__ = ["run_all_variants", "VARIANTS"]


def run_all_variants(app: str, nprocs: int = 8, preset: str = "bench",
                     variants: Optional[list] = None,
                     jobs: int = 1, service=None,
                     fleet: Optional[list] = None) -> dict:
    """Run ``variants`` (default: the four of Figures 1/2 plus seq).

    Two batches through :func:`~repro.eval.parallel.run_requests` on one
    tier (``jobs``/``service``/``fleet`` as there): the sequential oracle
    first, alone — its measured time seeds every later variant's speedup
    — then the remaining variants.  Results are keyed in ``variants``
    order.
    """
    if variants is None:
        variants = list(FIGURE_VARIANTS)

    def request(variant: str, seq_time=None) -> RunRequest:
        return RunRequest(app=app, variant=variant, nprocs=nprocs,
                          preset=preset, seq_time=seq_time)

    out: dict = {}
    seq_time = None
    with service_for(jobs, service, fleet) as svc:
        if "seq" in variants:
            (out["seq"],) = run_requests([request("seq")], service=svc)
            seq_time = out["seq"].time
        rest = [v for v in variants if v != "seq"]
        out.update(zip(rest, run_requests(
            [request(v, seq_time) for v in rest], service=svc)))
    return {v: out[v] for v in variants}

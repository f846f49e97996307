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

This module is now a thin facade over :mod:`repro.api` — the typed
``RunRequest``/``RunResult`` layer that the CLI, the run service
(:mod:`repro.serve`) and every harness share:

* :class:`VariantResult` is an **alias** of :class:`repro.api.RunResult`
  (same fields and semantics, plus service metadata; it gained
  ``to_json()``/``from_json()`` with the ``repro-run/1`` schema tag);
* :func:`run_all_variants` drives :func:`repro.api.execute` with a shared
  compiled-program cache (the sequential oracle runs once per app).
"""

from __future__ import annotations

from typing import Optional

from repro.api.execute import ProgramCache, execute
from repro.api.registry import FIGURE_VARIANTS, VARIANTS
from repro.api.types import RunRequest, RunResult, machine_to_doc
from repro.sim.machine import MachineModel

__all__ = ["VariantResult", "run_all_variants", "VARIANTS"]

#: the historical result type — one class, one serializer, everywhere
VariantResult = RunResult


def run_all_variants(app: str, nprocs: int = 8, preset: str = "bench",
                     variants: Optional[list] = None,
                     model: Optional[MachineModel] = None,
                     cache: Optional[ProgramCache] = None,
                     jobs: int = 1, service=None,
                     fleet: Optional[list] = None) -> dict:
    """Run ``variants`` (default: the four of Figures 1/2 plus seq).

    One compiled-program cache spans the batch, and the sequential
    oracle's measured time seeds every later variant's speedup — the same
    contract as before, now through the unified API.

    ``jobs > 1`` (or ``service``, or ``fleet`` — remote ``"HOST:PORT"``
    specs) retires the variants through a
    :class:`~repro.serve.RunService` pool (or a
    :class:`~repro.serve.FleetService` over the fleet hosts) in two
    phases: the sequential oracle first (alone — its measured time seeds
    the others' speedups, exactly as the serial loop threads it), then
    the remaining variants concurrently.  Results are keyed in
    ``variants`` order either way.
    """
    if variants is None:
        variants = list(FIGURE_VARIANTS)
    machine = machine_to_doc(model)

    def request(variant: str, seq_time=None) -> RunRequest:
        return RunRequest(app=app, variant=variant, nprocs=nprocs,
                          preset=preset, machine=machine,
                          seq_time=seq_time)

    out: dict = {}
    seq_time = None
    if jobs <= 1 and service is None and not fleet:
        cache = cache if cache is not None else ProgramCache()
        for variant in variants:
            out[variant] = execute(request(variant, seq_time), cache)
            if variant == "seq":
                seq_time = out[variant].time
        return out

    from repro.eval.parallel import run_requests, service_for
    with service_for(jobs, service, fleet) as svc:
        if "seq" in variants:
            (out["seq"],) = run_requests([request("seq")], service=svc)
            seq_time = out["seq"].time
        rest = [v for v in variants if v != "seq"]
        out.update(zip(rest, run_requests(
            [request(v, seq_time) for v in rest], service=svc)))
    return {v: out[v] for v in variants}

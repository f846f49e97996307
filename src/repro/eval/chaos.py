"""Chaos harness: prove numerics survive an unreliable interconnect.

``python -m repro racecheck`` fuzzes *schedules*; this module fuzzes the
*wire*.  For every requested (application, variant) pair it first runs the
pair fault-free to capture ground truth, then re-runs it under a seeded
:class:`~repro.sim.faults.FaultPlan` — messages dropped, duplicated,
reordered and delayed, one node stalled — once per seed, and asserts the
answer did not move:

* **DSM variants** (``spf``/``tmk``/...): the coherent final contents of
  every application array (a barrier-ordered readback on processor 0,
  the same one the racecheck harness uses) must be **bit-identical** to
  the fault-free run; reduction scalars must match within the usual
  signature tolerance (lock-folded reductions combine in lock-grant
  order, which timing legitimately perturbs).
* **Message-passing variants** (``xhpf``/``pvme``): the scalar signature
  must be **bit-identical** — every checksum is computed from explicit
  sends whose sources and contents are timing-independent.

Any divergence means the reliable-delivery sublayer leaked a fault into
the computation — a dropped message papered over, a duplicate applied
twice, an ordering inversion observed — and the sweep fails loudly with
the offending cell.  Command line::

    python -m repro chaos --seeds 3 --preset bench --out chaos.json
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as _dc_replace
from typing import Optional, Sequence, Union

from repro.api.registry import DSM_VARIANTS as _DSM_VARIANTS
from repro.api.types import RunRequest, RunResult, fault_plan_to_doc
from repro.apps.common import signatures_close
from repro.eval.constants import APPS, VARIANT_NAMES
from repro.eval.parallel import run_requests
from repro.sim.faults import FaultPlan

__all__ = ["ChaosCell", "ChaosReport", "chaos_sweep"]


@dataclass
class ChaosCell:
    """One (app, variant, seed) run under faults, judged against truth."""

    app: str
    variant: str
    seed: int
    ok: bool
    arrays_identical: bool       # DSM: readback hashes; MP: vacuously True
    scalars_ok: bool
    time: float
    retransmissions: int
    dup_suppressed: int
    acks: int
    faults: dict = field(default_factory=dict)   # FaultStats.as_dict()
    mismatches: list = field(default_factory=list)

    def as_doc(self) -> dict:
        return {
            "app": self.app, "variant": self.variant, "seed": self.seed,
            "ok": self.ok, "arrays_identical": self.arrays_identical,
            "scalars_ok": self.scalars_ok, "time": self.time,
            "retransmissions": self.retransmissions,
            "dup_suppressed": self.dup_suppressed, "acks": self.acks,
            "faults": dict(self.faults), "mismatches": list(self.mismatches),
        }


@dataclass
class ChaosReport:
    """Verdict of :func:`chaos_sweep` over every cell."""

    preset: str
    nprocs: int
    seeds: list
    plan: dict                   # fault_plan_to_doc form (one serializer)
    cells: list = field(default_factory=list)
    errors: list = field(default_factory=list)   # (app, variant, seed, error)

    @property
    def ok(self) -> bool:
        return not self.errors and all(c.ok for c in self.cells)

    @property
    def total_retransmissions(self) -> int:
        return sum(c.retransmissions for c in self.cells)

    def as_doc(self) -> dict:
        return {
            "kind": "chaos-sweep",
            "preset": self.preset, "nprocs": self.nprocs,
            "seeds": list(self.seeds), "plan": dict(self.plan),
            "ok": self.ok,
            "total_retransmissions": self.total_retransmissions,
            "cells": [c.as_doc() for c in self.cells],
            "errors": [list(e) for e in self.errors],
        }

    def format(self) -> str:
        lines = [f"chaos sweep: preset={self.preset} n={self.nprocs} "
                 f"seeds={self.seeds}"]
        pairs: dict = {}
        for c in self.cells:
            pairs.setdefault((c.app, c.variant), []).append(c)
        for (app, variant), cells in sorted(pairs.items()):
            bad = [c for c in cells if not c.ok]
            retrans = sum(c.retransmissions for c in cells)
            dropped = sum(c.faults.get("drops", 0) for c in cells)
            status = "OK " if not bad else "FAIL"
            lines.append(
                f"  {status} {app:8s} {variant:8s} seeds={len(cells)} "
                f"drops={dropped:4d} retrans={retrans:4d}")
            for c in bad:
                lines.append(f"       seed {c.seed}: "
                             + "; ".join(c.mismatches))
        for app, variant, seed, err in self.errors:
            lines.append(f"  ERROR {app}/{variant} seed {seed}: {err}")
        lines.append(f"  verdict: {'OK' if self.ok else 'FAIL'} "
                     f"({self.total_retransmissions} retransmission(s) "
                     f"recovered across the sweep)")
        return "\n".join(lines)


def _judge(seed: int, base: RunResult, res: RunResult) -> ChaosCell:
    """One faulted run against its pair's fault-free baseline."""
    mismatches: list = []
    if res.variant in _DSM_VARIANTS:
        want, got = base.array_hashes or {}, res.array_hashes or {}
        mismatches += [f"array {n!r} diverged"
                       for n in sorted(set(want) | set(got))
                       if want.get(n) != got.get(n)]
        # lock-grant order is timing-dependent, so folded reduction
        # scalars are close, not bit-stable
        scalars_ok = signatures_close(res.signature, base.signature)
    else:
        scalars_ok = res.signature == base.signature
    arrays_ok = not mismatches
    if not scalars_ok:
        mismatches.append("scalar signature diverged")
    fstats = res.fault_stats
    return ChaosCell(
        app=res.app, variant=res.variant, seed=seed,
        ok=arrays_ok and scalars_ok,
        arrays_identical=arrays_ok, scalars_ok=scalars_ok, time=res.time,
        retransmissions=res.retransmissions,
        dup_suppressed=res.dup_suppressed, acks=res.acks,
        faults=fstats.as_dict() if fstats is not None else {},
        mismatches=mismatches)


def _describe(request: RunRequest) -> str:
    what = (f"fault seed {request.fault_plan['seed']}" if request.fault_plan
            else "fault-free baseline")
    return f"chaos {request.app}/{request.variant}: {what}"


def chaos_sweep(apps: Optional[Sequence[str]] = None,
                variants: Optional[Sequence[str]] = None,
                seeds: Union[int, Sequence[int]] = 3,
                nprocs: int = 8, preset: str = "bench",
                plan: Optional[FaultPlan] = None,
                service=None, progress=None) -> ChaosReport:
    """Sweep fault seeds over app×variant pairs and judge the numerics.

    ``seeds`` is a count (seeds ``0..K-1``) or an explicit sequence.
    ``plan`` supplies the fault rates/schedule (default:
    :meth:`FaultPlan.default`); each seed runs under ``plan.with_seed``.

    Every pair's fault-free baseline and every (pair, seed) cell is one
    independent request in a single batch through
    :func:`~repro.eval.parallel.run_requests` on ``service`` (the
    document is the same on every tier).
    DSM requests set ``readback`` so the coherent array hashes travel on
    ``RunResult.array_hashes``.  A run that fails is recorded on
    ``report.errors``; a failed baseline voids its pair's cells.
    """
    apps = list(apps) if apps else list(APPS)
    variants = list(variants or VARIANT_NAMES)
    seed_list = list(range(seeds)) if isinstance(seeds, int) else list(seeds)
    if not seed_list:
        raise ValueError("chaos sweep needs at least one fault seed")
    plan = plan if plan is not None else FaultPlan.default()

    requests, labels = [], []      # label: (app, variant, seed|None)
    for app in apps:
        for variant in variants:
            base = RunRequest(
                app=app, variant=variant, nprocs=nprocs, preset=preset,
                readback=(variant in _DSM_VARIANTS))
            requests.append(base)
            labels.append((app, variant, None))
            for seed in seed_list:
                requests.append(_dc_replace(
                    base,
                    fault_plan=fault_plan_to_doc(plan.with_seed(seed))))
                labels.append((app, variant, seed))

    results = dict(zip(labels, run_requests(
        requests, service, progress=progress, describe=_describe,
        raise_on_error=False)))

    report = ChaosReport(
        preset=preset, nprocs=nprocs, seeds=seed_list,
        plan=fault_plan_to_doc(plan))
    for (app, variant, seed), res in results.items():
        base = results[(app, variant, None)]
        if seed is None:
            if not res.ok:
                report.errors.append(
                    (app, variant, None,
                     f"baseline failed: {res.error_kind}: {res.error}"))
        elif not base.ok:
            continue                   # voided by its baseline's error
        elif not res.ok:
            report.errors.append(
                (app, variant, seed, f"{res.error_kind}: {res.error}"))
        else:
            report.cells.append(_judge(seed, base, res))
    return report

"""Schedule-fuzzing race-check harness over the paper's applications.

The protocol proof obligations are: (a) every legal interleaving of the
DSM protocol computes the same answer, and (b) no application contains a
data race under the happens-before order the synchronization operations
induce.  :func:`racecheck_app` discharges both empirically: it runs one
(application, DSM variant) pair under ``K`` different ``schedule_seed``
values — each seed permutes same-timestamp event ordering in the
simulator, i.e. picks a distinct legal interleaving — with the
:class:`~repro.tmk.racecheck.RaceMonitor` attached, then

* asserts the coherent final contents of every application array are
  **bit-identical across all seeds** (hashes of a post-run, barrier-
  ordered readback on processor 0),
* compares those arrays against the sequential oracle (bitwise, with an
  ``allclose`` fallback for arrays whose combining order legitimately
  differs from the sequential one, e.g. staged accumulations),
* compares reduction scalars against the oracle with the usual
  signature tolerance (lock-folded reductions combine in schedule
  order, so scalars are *close*, not bit-stable, across seeds), and
* reports every true race and false-sharing pair the monitor found.

Command line: ``python -m repro racecheck <app> <variant> --seeds K``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from repro.api.execute import execute_with_arrays
from repro.api.types import RunRequest, races_from_doc
from repro.apps.common import get_app, signatures_close
from repro.compiler import depend
from repro.compiler.seq import run_sequential
from repro.eval.parallel import run_requests

__all__ = ["SeedRun", "RacecheckReport", "racecheck_app",
           "CrossCheckReport", "cross_check_app"]


@dataclass
class SeedRun:
    """One application run under one schedule seed."""

    seed: Optional[int]
    time: float
    races: object                     # RaceCheckResult
    hashes: dict                      # array name -> sha256 of coherent bytes
    signature: dict                   # reduction scalars
    scalars_close: bool = True


@dataclass
class RacecheckReport:
    """Verdict of :func:`racecheck_app` over all seeds."""

    app: str
    variant: str
    nprocs: int
    preset: str
    runs: list = field(default_factory=list)       # SeedRun per seed
    deterministic: bool = True      # array hashes identical across seeds
    arrays_exact: list = field(default_factory=list)
    arrays_close: list = field(default_factory=list)
    arrays_wrong: list = field(default_factory=list)
    true_races: list = field(default_factory=list)     # union across seeds
    false_sharing: list = field(default_factory=list)  # union across seeds

    @property
    def all_exact(self) -> bool:
        """Every compared array matched the oracle bit-for-bit."""
        return not self.arrays_close and not self.arrays_wrong

    @property
    def ok(self) -> bool:
        return (not self.true_races and self.deterministic
                and not self.arrays_wrong
                and all(r.scalars_close for r in self.runs))

    def format(self, lookup: Optional[dict] = None) -> str:
        seeds = [r.seed for r in self.runs]
        lines = [f"racecheck {self.app}/{self.variant} "
                 f"n={self.nprocs} preset={self.preset} seeds={seeds}"]
        lines.append(
            f"  numerics: {'bit-identical' if self.deterministic else 'DIVERGED'}"
            f" across {len(self.runs)} seed(s); vs sequential oracle: "
            f"{len(self.arrays_exact)} array(s) bit-exact, "
            f"{len(self.arrays_close)} close, "
            f"{len(self.arrays_wrong)} WRONG"
            + ("" if not self.arrays_wrong
               else " (" + ", ".join(self.arrays_wrong) + ")"))
        bad_scalars = [r.seed for r in self.runs if not r.scalars_close]
        lines.append("  scalars: within tolerance of oracle"
                     if not bad_scalars else
                     f"  scalars: OUT OF TOLERANCE for seed(s) {bad_scalars}")
        lines.append(f"  races: {len(self.true_races)} true race(s), "
                     f"{len(self.false_sharing)} false-sharing pair(s)")
        for f in self.true_races:
            lines.append("    " + f.describe(lookup))
        for f in self.false_sharing[:8]:
            lines.append("    " + f.describe(lookup))
        if len(self.false_sharing) > 8:
            lines.append(f"    ... {len(self.false_sharing) - 8} more "
                         f"false-sharing pair(s)")
        lines.append(f"  verdict: {'OK' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def _merge_findings(report: RacecheckReport, races, seen: set) -> None:
    """Union race findings across seeds, deduplicated by description."""
    for f in list(races.true_races) + list(races.false_sharing):
        key = f.describe()
        if key in seen:
            continue
        seen.add(key)
        (report.true_races if f.kind == "true-race"
         else report.false_sharing).append(f)


def racecheck_app(app: str, variant: str = "spf",
                  seeds: Union[int, Sequence] = 5,
                  nprocs: int = 8, preset: str = "test",
                  jobs: int = 1, service=None,
                  fleet: Optional[list] = None) -> RacecheckReport:
    """Race-check ``app`` under ``variant`` across ``seeds`` interleavings.

    ``seeds`` is a count (seeds ``0..K-1``) or an explicit sequence; a
    seed of ``None`` means the unperturbed historical order.  Only DSM
    variants apply (``spf``/``spf_opt``/``spf_old``/``tmk``/``spf_spec``).

    Every seed is one ``racecheck`` + ``readback`` request.  The first
    runs in this process — the sequential-oracle comparison needs array
    *contents*, which never cross the wire — and the rest go through
    :func:`~repro.eval.parallel.run_requests` (``jobs``/``service``/
    ``fleet`` pick the tier there), whose results carry the same array
    hashes and race findings.
    """
    seed_list = list(range(seeds)) if isinstance(seeds, int) else list(seeds)
    if not seed_list:
        raise ValueError("racecheck needs at least one schedule seed "
                         "(a zero-run verdict would be vacuously OK)")
    requests = [RunRequest(app=app, variant=variant, nprocs=nprocs,
                           preset=preset, schedule_seed=seed, racecheck=True,
                           readback=True, seq_time=1.0)
                for seed in seed_list]
    first, first_arrays = execute_with_arrays(requests[0])
    results = [first] + run_requests(
        requests[1:], jobs=jobs, service=service, fleet=fleet,
        describe=lambda r: (f"racecheck {r.app}/{r.variant} "
                            f"seed {r.schedule_seed}"))

    spec = get_app(app)
    seq_views, seq_scalars, _seq_time = run_sequential(
        spec.build_program(spec.params(preset)))
    report = RacecheckReport(app=app, variant=variant, nprocs=nprocs,
                             preset=preset)
    seen_findings: set = set()
    for seed, res in zip(seed_list, results):
        races = races_from_doc(res.races)      # live here, a doc off the wire
        report.runs.append(SeedRun(
            seed=seed, time=res.time, races=races,
            hashes=dict(res.array_hashes), signature=dict(res.signature),
            scalars_close=(not seq_scalars
                           or signatures_close(res.signature, seq_scalars))))
        if res.array_hashes != first.array_hashes:
            report.deterministic = False
        _merge_findings(report, races, seen_findings)

    # vs the sequential oracle: bitwise first, tolerance fallback
    for name, got in sorted(first_arrays.items()):
        ref = seq_views.get(name)
        if ref is None or ref.shape != got.shape:
            continue               # runtime-only array (e.g. hand-tmk stats)
        if got.dtype == ref.dtype and got.tobytes() == ref.tobytes():
            report.arrays_exact.append(name)
            continue
        # tolerance matched to the dtype: reordered float32 accumulations
        # (fused loops, staged sums) legitimately drift more than float64
        single = np.result_type(got.dtype, ref.dtype).itemsize <= 4
        rtol, atol = (5e-4, 1e-4) if single else (1e-6, 1e-12)
        if np.allclose(got, ref, rtol=rtol, atol=atol):
            report.arrays_close.append(name)
        else:
            report.arrays_wrong.append(name)
    return report


# ---------------------------------------------------------------------- #
# static <-> dynamic cross-validation

@dataclass
class CrossCheckReport:
    """Static verdicts vs the dynamic detector, for one application.

    The contract being checked: a family the symbolic engine classifies
    PROVEN-PARALLEL must never be implicated in a *true race* the dynamic
    monitor finds under any schedule seed (one direction of soundness),
    and seeded dependence injections must flip its verdict away from
    PROVEN-PARALLEL (the engine is not vacuously optimistic).
    """

    app: str
    nprocs: int
    preset: str
    seeds: list
    verdicts: dict = field(default_factory=dict)   # family -> verdict
    racing_families: list = field(default_factory=list)  # with a true race
    violations: list = field(default_factory=list)  # PP family that raced
    mutations: list = field(default_factory=list)   # per-seed flip records
    dynamic_ok: bool = True   # the underlying racecheck_app verdict

    @property
    def flips(self) -> int:
        return sum(1 for m in self.mutations if m["flipped"])

    @property
    def ok(self) -> bool:
        return (not self.violations and self.dynamic_ok
                and all(m["flipped"] for m in self.mutations))

    def as_doc(self) -> dict:
        return {"schema": "repro-crosscheck/1", "app": self.app,
                "nprocs": self.nprocs, "preset": self.preset,
                "seeds": list(self.seeds), "verdicts": dict(self.verdicts),
                "racing_families": list(self.racing_families),
                "violations": list(self.violations),
                "mutations": [dict(m) for m in self.mutations],
                "dynamic_ok": self.dynamic_ok, "ok": self.ok}

    def format(self) -> str:
        lines = [f"cross-check {self.app} n={self.nprocs} "
                 f"preset={self.preset} seeds={self.seeds}"]
        for fam, verdict in sorted(self.verdicts.items()):
            raced = " [dynamic true race]" if fam in self.racing_families \
                else ""
            lines.append(f"  {fam:24s} {verdict}{raced}")
        lines.append(f"  dynamic: {'OK' if self.dynamic_ok else 'FAIL'}; "
                     f"{len(self.racing_families)} family(ies) raced")
        if self.violations:
            lines.append("  VIOLATION: proven-parallel family(ies) raced "
                         "dynamically: " + ", ".join(self.violations))
        for m in self.mutations:
            lines.append(
                f"  mutation seed={m['seed']} {m['kind']} on "
                f"{m['family']}/{m['array']}: {m['before']} -> {m['after']}"
                f" {'FLIP' if m['flipped'] else 'NO-FLIP'}")
        lines.append(f"  verdict: {'OK' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def cross_check_app(app: str, seeds: Union[int, Sequence] = 3,
                    nprocs: int = 8, preset: str = "test",
                    mutations: int = 3) -> CrossCheckReport:
    """Assert the static verdicts agree with the dynamic detector.

    Runs :func:`depend.analyze_program` on ``app``'s program and
    :func:`racecheck_app` (``spf`` backend) across ``seeds``
    interleavings, attributes every dynamic *true race* to its loop
    family via the access source tags, and records a violation for any
    PROVEN-PARALLEL family so implicated.  Then injects ``mutations``
    seeded artificial dependences (:func:`depend.inject_dependence`) and
    checks each flips its target family's verdict away from
    PROVEN-PARALLEL.
    """
    spec = get_app(app)
    program = spec.build_program(spec.params(preset))
    static = depend.analyze_program(program, nprocs)

    dyn = racecheck_app(app, "spf", seeds=seeds, nprocs=nprocs,
                        preset=preset)
    racing = sorted({depend.tag_family(src)
                     for f in dyn.true_races
                     for src in (f.source_a, f.source_b)})

    report = CrossCheckReport(
        app=app, nprocs=nprocs, preset=preset,
        seeds=[r.seed for r in dyn.runs],
        verdicts={fam: v.verdict for fam, v in static.verdicts.items()},
        racing_families=racing,
        violations=[fam for fam in racing
                    if static.verdicts.get(fam) is not None
                    and static.verdicts[fam].verdict
                    == depend.PROVEN_PARALLEL],
        dynamic_ok=dyn.ok)

    for seed in range(mutations):
        mutated, mut = depend.inject_dependence(program, seed=seed)
        after = depend.analyze_program(mutated, nprocs)
        verdict = after.verdicts[mut.family].verdict
        report.mutations.append({
            "seed": seed, "kind": mut.kind, "family": mut.family,
            "array": mut.array,
            "before": report.verdicts.get(mut.family, depend.UNKNOWN),
            "after": verdict,
            "flipped": verdict != depend.PROVEN_PARALLEL})
    return report

"""Compilation reports: what each backend decided and why.

A parallelizing compiler's output is only trustworthy if its decisions are
inspectable.  :func:`spf_report` and :func:`xhpf_report` render what the
backends will do with a program — dispatch units and fusion groups, chunk
footprints, reduction strategies, halo-push plans, owner-computes
assignments and irregular fallbacks — without running anything.

    from repro.compiler.report import spf_report
    print(spf_report(program, nprocs=8, options=SpfOptions(fuse_loops=True)))
"""

from __future__ import annotations

from typing import Optional

from repro.compiler import depend
from repro.compiler.ir import ParallelLoop, Program, SeqBlock
from repro.compiler.partition import loop_chunk
from repro.compiler.spf import (REDUCTION_PREFIX, STAGING_PREFIX,
                                SpfOptions, compile_spf)
from repro.compiler.xhpf import compile_xhpf

__all__ = ["spf_report", "xhpf_report", "footprint_report",
           "source_lookup"]


def _dim_str(dim_set, extent: int) -> str:
    """One dimension's index set as ``lo:hi``: its bounding interval,
    clipped to the array (a cyclic chunk's :class:`~depend.Strided` rows
    show as the interval that brackets them)."""
    if isinstance(dim_set, depend.Strided):
        lo = dim_set.start
        hi = lo + (dim_set.count - 1) * dim_set.step + dim_set.width
    else:
        lo, hi = dim_set.lo, dim_set.hi
    return f"{max(lo, 0)}:{min(hi, extent)}"


def _sets_str(sets: Optional[dict], program: Program) -> str:
    if sets is None:
        return "irregular (run-time footprint)"
    parts = []
    for array, tuples in sorted(sets.items()):
        shape = program.decl(array).shape
        spans = ",".join(
            "[" + " ".join(map(_dim_str, dims, shape)) + "]"
            for dims in tuples)
        parts.append(f"{array}{spans}")
    return " ".join(parts) if parts else "-"


def footprint_report(loop: ParallelLoop, nprocs: int,
                     program: Program) -> str:
    """Per-processor read/write index sets of one loop
    (:func:`depend.chunk_sets`)."""
    lines = [f"loop {loop.name}: extent [{loop.start}, {loop.extent}), "
             f"{loop.schedule} schedule"]
    for pid in range(nprocs):
        chunk = loop_chunk(loop, pid, nprocs)
        reads = depend.chunk_sets(loop, "reads", chunk, program)
        writes = depend.chunk_sets(loop, "writes", chunk, program)
        lines.append(f"  p{pid}: reads {_sets_str(reads, program)}  "
                     f"writes {_sets_str(writes, program)}")
    return "\n".join(lines)


def source_lookup(program: Program, nprocs: int = 8,
                  options: Optional[SpfOptions] = None) -> dict:
    """IR-level descriptions for the race detector's source tags.

    The SPF backend tags every DSM access it emits with
    ``"<unit name>:<array>"``; this maps each tag back to what the
    compiler knows about the access (statement kind, schedule, extent,
    direction) so a race report can point at source-level constructs
    instead of page numbers.  Hand-coded Tmk programs use the
    :class:`~repro.tmk.shared.SharedArray` default tags
    (``"<array>.read"`` etc.), which need no lookup.
    """
    exe = compile_spf(program, nprocs, options)
    kinds: dict = {}

    def note(tag: str, what: str) -> None:
        kinds.setdefault(tag, []).append(what)

    for unit in exe.units:
        for stmt in ([unit.seq] if unit.seq else []):
            where = f"sequential block {stmt.name!r} (master only)"
            for acc in stmt.reads:
                note(f"{stmt.name}:{acc.array}", f"read in {where}")
            for acc in stmt.writes:
                note(f"{stmt.name}:{acc.array}", f"write in {where}")
        for loop in unit.loops or []:
            where = (f"parallel loop {loop.name!r} "
                     f"[{loop.start}, {loop.extent}) {loop.schedule}")
            for acc in loop.reads:
                note(f"{loop.name}:{acc.array}", f"read in {where}")
            for acc in loop.writes:
                note(f"{loop.name}:{acc.array}", f"write in {where}")
            for name in loop.accumulate:
                note(f"{loop.name}:{STAGING_PREFIX}{name}",
                     f"staged accumulation of {name!r} in {where}")
            for red in loop.reductions:
                note(f"{loop.name}:{REDUCTION_PREFIX}{red.name}",
                     f"lock-folded reduction {red.name!r} in {where}")
    return {tag: "; ".join(dict.fromkeys(what))
            for tag, what in kinds.items()}


def spf_report(program: Program, nprocs: int = 8,
               options: Optional[SpfOptions] = None) -> str:
    """Everything the SPF backend decided for ``program``."""
    exe = compile_spf(program, nprocs, options)
    opt = exe.options
    lines = [f"SPF compilation report — {program.name!r}, {nprocs} "
             f"processors, options: {opt.describe()}",
             f"shared allocation: "
             + ", ".join(f"{d.name}{d.shape}" for d in program.arrays)
             + " (all page-padded)"]
    if exe.reductions:
        strategy = ("combining tree (2(n-1) msgs)" if opt.tree_reductions
                    else "lock-protected shared scalar")
        lines.append("reductions: "
                     + ", ".join(exe.reductions) + f" via {strategy}")
    lines.append(f"dispatch units: {len(exe.units)} "
                 f"({sum(1 for u in exe.units if u.seq)} sequential blocks "
                 f"on the master, "
                 f"{sum(1 for u in exe.units if u.loops)} fork-joins)")
    shown = 0
    for idx, unit in enumerate(exe.units):
        if shown >= 12:
            lines.append(f"  ... ({len(exe.units) - idx} more units)")
            break
        shown += 1
        if unit.mark:
            lines.append(f"  unit {idx}: measurement mark {unit.mark!r}")
        elif unit.seq:
            lines.append(f"  unit {idx}: sequential {unit.seq.name!r} "
                         f"(master only)")
        else:
            names = " + ".join(l.name for l in unit.loops)
            fused = " [fused]" if len(unit.loops) > 1 else ""
            irr = " [irregular: on-demand element faults]" \
                if any(l.irregular for l in unit.loops) else ""
            lines.append(f"  unit {idx}: parallel {names}{fused}{irr}")
    if exe.push_plan:
        lines.append("halo-push plan:")
        for j, entries in sorted(exe.push_plan.items()):
            for array, lo_off, hi_off, _producer in entries:
                lines.append(f"  after unit {j}: push {array} boundary "
                             f"rows (halo {lo_off:+d}/{hi_off:+d}) to "
                             f"neighbours")
    elif opt.push_halos:
        lines.append("halo-push plan: no eligible producer/consumer pairs")
    dep = depend.analyze_program(program, nprocs, options)
    counts = dep.counts()
    lines.append(
        f"dependence verdicts (repro lint --explain LOOP for evidence): "
        f"{counts[depend.PROVEN_PARALLEL]} proven-parallel, "
        f"{counts[depend.PROVEN_SERIAL]} proven-serial, "
        f"{counts[depend.UNKNOWN]} unknown")
    for fam in sorted(dep.verdicts):
        v = dep.verdicts[fam]
        if v.verdict != depend.PROVEN_PARALLEL:
            why = (v.unknowns[0] if v.unknowns
                   else v.dependences[0].describe() if v.dependences
                   else "")
            lines.append(f"  {fam}: {v.verdict.upper()}"
                         + (f" — {why}" if why else ""))
    return "\n".join(lines)


def xhpf_report(program: Program, nprocs: int = 8) -> str:
    """Everything the XHPF backend decided for ``program``."""
    exe = compile_xhpf(program, nprocs)
    lines = [f"XHPF compilation report — {program.name!r}, {nprocs} "
             f"processors"]
    for decl in program.arrays:
        dist = (f"distributed {decl.dist_kind.upper()} on dim "
                f"{decl.distribute}" if decl.distribute is not None
                else "replicated")
        lines.append(f"  array {decl.name}{decl.shape}: {dist}")
    for stmt in exe.schedule:
        if isinstance(stmt, SeqBlock):
            lines.append(f"  seq {stmt.name!r}: replicated SPMD execution"
                         + ("" if not stmt.reads else
                            "; owners broadcast read regions"))
        elif isinstance(stmt, ParallelLoop):
            if stmt.irregular:
                lines.append(
                    f"  loop {stmt.name!r}: IRREGULAR — communication "
                    f"pattern unknown at compile time; every processor "
                    f"broadcasts its whole partition of the written "
                    f"arrays at loop end"
                    + (f"; accumulation buffers {stmt.accumulate} "
                       f"broadcast-summed" if stmt.accumulate else ""))
            else:
                lines.append(f"  loop {stmt.name!r}: owner-computes "
                             f"(align {stmt.align}), exact pairwise "
                             f"exchange of non-owned footprint")
        if len(lines) > 24:
            lines.append("  ...")
            break
    return "\n".join(lines)

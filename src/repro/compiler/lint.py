"""Static IR verifier: ``python -m repro lint``.

The dynamic race detector (PR 1) needs a full simulated run to fire; this
module finds the same families of defects *statically*, before any
simulation, by analyzing the :class:`~repro.compiler.ir.Program` the way
the paper's compilers do.  Five rule families:

* **well-formedness** (``wf-*``) — undeclared arrays, region rank
  mismatches, out-of-bounds ``Point`` indices, empty iteration spaces,
  ``Span`` halos on cyclic schedules, reductions a kernel never produces,
  plus the XHPF backend's hard distribution constraints (``xhpf-*``);
* **footprint soundness** (``footprint``) — a shadow-execution sanitizer:
  each kernel runs once, single-process, chunk by chunk on recording array
  wrappers, and every element touched outside the declared read/write
  regions is reported with source attribution.  Today a footprint lie only
  surfaces as a numeric mismatch against the sequential oracle at some
  processor count.  Its ``lost-write`` twin reports a declared write that
  no chunk performs (a write through ``out=`` into a view, for one);
* **redundant synchronization** (``redundant-barrier``) — adjacent
  parallel loops that the SPF planner puts into one dispatch unit under
  ``fuse_loops`` but that are compiled unfused: an eliminable barrier
  pair (Tseng [17], Section 5 of the paper);
* **false sharing** (``false-sharing``) — from dtype, shape, page size and
  the block/cyclic partition, the chunk boundaries that straddle pages,
  predicting write-write false sharing and the diff traffic it causes
  (the paper's Jacobi loses 2% exactly here);
* **traffic prediction** (:func:`estimate_spf_traffic`) — the analytic
  model's protocol replica (:mod:`repro.compiler.model`, the same LRC core
  the simulator runs) advanced once over the compiled SPF dispatch
  schedule, reporting its ``DsmStats`` counters (faults, fetches,
  twins/diffs, lock traffic), message count and diff payload.  The replica
  executes every kernel once (``shadow=False`` does not skip that).
  Irregular programs report "unanalyzable" exactly where the paper's
  compilers give up.

Suppression: patterns of the form ``rule`` or ``rule:stmt`` (fnmatch
globs, matched against the statement family — ``orthogonalize[5]``
matches ``orthogonalize``).  See docs/LINT.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict, replace
from fnmatch import fnmatch
from typing import Optional

import numpy as np
from numpy.lib.mixins import NDArrayOperatorsMixin

from repro.compiler.depend import stmt_family
from repro.compiler.ir import (MARK_WINDOWS, FootprintError, Mark,
                               ParallelLoop, Program, SeqBlock, Span)
from repro.compiler.partition import SEQ, Elements, loop_chunk
from repro.compiler.spf import STAGING_PREFIX, compile_spf
from repro.sim.machine import PAGE_SIZE, SP2_MODEL
from repro.tmk.pagespace import SharedSpace, sorted_unique

__all__ = ["Finding", "LintReport", "TrafficEstimate", "ShadowArray",
           "lint_program", "estimate_spf_traffic", "compare_traffic",
           "TRAFFIC_TOLERANCES"]

SEVERITIES = ("error", "warning", "info")


# ---------------------------------------------------------------------- #
# findings

@dataclass
class Finding:
    """One lint diagnostic with source attribution."""

    rule: str
    severity: str
    program: str
    stmt: str                       # statement name ("" for program-level)
    message: str
    array: Optional[str] = None
    window: str = "setup"           # setup | measured | epilogue
    hint: str = ""
    details: dict = field(default_factory=dict)

    def key(self) -> tuple:
        return (self.rule, stmt_family(self.stmt), self.array)

    def where(self) -> str:
        loc = self.program
        if self.stmt:
            loc += f"/{self.stmt}"
        loc += f" [{self.window}]"
        if self.array:
            loc += f" array {self.array!r}"
        return loc

    def format(self) -> str:
        lines = [f"{self.severity:7s} {self.rule:18s} {self.where()}: "
                 f"{self.message}"]
        if self.hint:
            lines.append(f"{'':26s} hint: {self.hint}")
        return "\n".join(lines)

    def as_doc(self) -> dict:
        return asdict(self)


@dataclass
class TrafficEstimate:
    """Prediction of the SPF variant's whole-run DSM counters."""

    analyzable: bool
    reason: str = ""                # why not, when analyzable is False
    nprocs: int = 0
    read_faults: int = 0
    write_faults: int = 0
    fetches: int = 0
    diffs_applied: int = 0
    twins_created: int = 0
    diffs_created: int = 0
    lock_acquires: int = 0
    est_messages: int = 0           # whole run, setup and shutdown included
    est_diff_kb: float = 0.0        # diff payload applied by requesters

    def format(self) -> str:
        if not self.analyzable:
            return f"traffic: unanalyzable ({self.reason})"
        return (f"traffic (spf, n={self.nprocs}): "
                f"~{self.fetches} fetches, ~{self.twins_created} twins/"
                f"diffs, {self.lock_acquires} lock acquires, "
                f"~{self.est_messages} messages, "
                f"~{self.est_diff_kb:.0f} KB diff data")

    def as_doc(self) -> dict:
        return asdict(self)


# Declared cross-check tolerances (relative error vs. simulated DsmStats)
# for regular applications, asserted by tests/test_lint_traffic.py.  The
# replica runs the simulator's state machine but advances phases in lock
# step, so a diff request the event schedule lands mid-interval can create
# one twin/diff more or less (docs/MODEL.md).
TRAFFIC_TOLERANCES = {
    "read_faults": 0.05,
    "write_faults": 0.05,
    "fetches": 0.05,
    "twins_created": 0.05,
    "diffs_created": 0.05,
    "lock_acquires": 0.0,           # exact: nprocs per reduction instance
    "est_messages": 0.05,
}


def compare_traffic(est: "TrafficEstimate", dsm, messages: int) -> list:
    """``[(metric, predicted, actual, tolerance, ok)]`` per cross-checked
    counter.  ``messages`` is the whole-run network message count."""
    rows = []
    for metric, tol in TRAFFIC_TOLERANCES.items():
        predicted = getattr(est, metric)
        actual = messages if metric == "est_messages" \
            else getattr(dsm, metric)
        ok = abs(predicted - actual) <= tol * max(actual, 1)   # 0.0: exact
        rows.append((metric, predicted, actual, tol, ok))
    return rows


@dataclass
class LintReport:
    """All findings for one program, plus the optional traffic estimate."""

    program: str
    nprocs: int
    findings: list = field(default_factory=list)
    traffic: Optional[TrafficEstimate] = None
    suppressed: int = 0

    @property
    def errors(self) -> list:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> list:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def counts(self) -> tuple:
        sev = [f.severity for f in self.findings]
        return (sev.count("error"), sev.count("warning"), sev.count("info"))

    def format(self) -> str:
        e, w, i = self.counts()
        head = (f"lint {self.program} (n={self.nprocs}): "
                f"{e} error(s), {w} warning(s), {i} info")
        if self.suppressed:
            head += f", {self.suppressed} suppressed"
        lines = [head]
        order = {"error": 0, "warning": 1, "info": 2}
        for f in sorted(self.findings, key=lambda f: (order[f.severity],
                                                      f.rule, f.stmt)):
            lines.append("  " + f.format().replace("\n", "\n  "))
        if self.traffic is not None:
            lines.append("  " + self.traffic.format())
        lines.append(f"  {'CLEAN' if self.ok else 'FAIL'}")
        return "\n".join(lines)

    def as_doc(self) -> dict:
        e, w, i = self.counts()
        return {"program": self.program, "nprocs": self.nprocs,
                "errors": e, "warnings": w, "infos": i, "ok": self.ok,
                "suppressed": self.suppressed,
                "findings": [f.as_doc() for f in self.findings],
                "traffic": (self.traffic.as_doc()
                            if self.traffic is not None else None)}


# ---------------------------------------------------------------------- #
# rule 1: well-formedness

def _chunks(stmt, nprocs: int) -> list:
    """The non-empty chunks a statement's regions resolve (and its kernel
    runs) at: the backend-free partition, or ``SEQ`` for a SeqBlock."""
    if isinstance(stmt, SeqBlock):
        return [SEQ]
    chunks = [loop_chunk(stmt, pid, nprocs) for pid in range(nprocs)]
    return [chunk for chunk in chunks if chunk.count]


def _check_wellformed(program: Program, nprocs: int,
                      backends: tuple) -> list:
    findings = []
    names = {a.name for a in program.arrays}
    seen = set()

    def emit(rule, severity, stmt, window, message, array=None, hint="",
             **details):
        f = Finding(rule=rule, severity=severity, program=program.name,
                    stmt=stmt, message=message, array=array, window=window,
                    hint=hint, details=details)
        if f.key() not in seen:
            seen.add(f.key())
            findings.append(f)

    families = set()
    for stmt, window in program.flat_statements_with_window():
        if isinstance(stmt, Mark):
            continue
        fam = stmt_family(stmt.name)
        if fam in families:
            continue
        families.add(fam)
        if isinstance(stmt, ParallelLoop):
            if stmt.extent <= 0:
                emit("wf-extent", "error", stmt.name, window,
                     f"bad loop extent {stmt.extent}",
                     hint="extent must be positive")
                continue
            if stmt.extent - stmt.start <= 0:
                emit("wf-empty", "warning", stmt.name, window,
                     f"empty iteration space [{stmt.start}, {stmt.extent})",
                     hint="drop the loop or fix start/extent")
            for name in stmt.accumulate:
                if name not in names:
                    emit("wf-undeclared", "error", stmt.name, window,
                         f"accumulate of undeclared array {name!r}",
                         array=name)
            if stmt.align is not None and stmt.align[0] not in names:
                emit("wf-undeclared", "error", stmt.name, window,
                     f"align references undeclared array "
                     f"{stmt.align[0]!r}", array=stmt.align[0])
        for which in ("reads", "writes"):
            for acc in getattr(stmt, which):
                if acc.array not in names:
                    emit("wf-undeclared", "error", stmt.name, window,
                         f"{which[:-1]} of undeclared array {acc.array!r}",
                         array=acc.array)
                    continue
                if acc.irregular:
                    continue
                shape = program.decl(acc.array).shape
                for chunk in _chunks(stmt, nprocs):
                    try:
                        acc.resolve(*chunk.bounds, shape)
                    except FootprintError as err:
                        rule = "wf-rank" if err.kind == "rank" \
                            else "wf-bounds"
                        emit(rule, "error", stmt.name, window,
                             f"{which[:-1]} region: {err.args[0]}",
                             array=acc.array,
                             hint=("match the region's rank to the "
                                   "array declaration"
                                   if err.kind == "rank" else
                                   "keep Point indices inside the array"),
                             kind=err.kind, region_rank=err.region_rank,
                             array_rank=err.array_rank, dim=err.dim,
                             index=err.index, extent=err.extent)
                        break
                if (isinstance(stmt, ParallelLoop)
                        and stmt.schedule == "cyclic" and acc.region):
                    lead = acc.region[0]
                    if isinstance(lead, Span) and (lead.lo_off < 0
                                                   or lead.hi_off > 0):
                        emit("wf-halo-cyclic", "warning", stmt.name,
                             window,
                             f"Span halo ({lead.lo_off:+d}, "
                             f"{lead.hi_off:+d}) on a cyclic schedule: "
                             f"the bounding-interval footprint covers "
                             f"nearly the whole array",
                             array=acc.array,
                             hint="use a block schedule for halo "
                                  "exchanges, or declare Full()")

    if "xhpf" in backends:
        for decl in program.arrays:
            if decl.distribute is not None and decl.distribute != 0:
                emit("xhpf-dist-dim", "error", "", "setup",
                     f"distribute={decl.distribute}: the XHPF backend "
                     f"implements only dim-0 distribution",
                     array=decl.name,
                     hint="distribute dimension 0 or replicate")
        for stmt, window in program.flat_statements_with_window():
            if not isinstance(stmt, SeqBlock) \
                    or stmt_family(stmt.name) + ":xhpf" in families:
                continue
            families.add(stmt_family(stmt.name) + ":xhpf")
            for acc in stmt.reads:
                if acc.irregular or acc.array not in names:
                    continue
                decl = program.decl(acc.array)
                if decl.distribute is None or decl.dist_kind != "cyclic":
                    continue
                row_lo, row_hi = acc.resolve(0, 0, decl.shape)[0]
                if row_hi - row_lo > 1:
                    emit("xhpf-cyclic-seq", "error", stmt.name, window,
                         f"sequential read of {row_hi - row_lo} rows of a "
                         f"CYCLIC-distributed array (the backend "
                         f"broadcasts single rows only)",
                         array=acc.array,
                         hint="read one row at a time, or distribute "
                              "BLOCK-wise")
    return findings


# ---------------------------------------------------------------------- #
# rule 2: footprint soundness (shadow execution)

class ShadowArray(NDArrayOperatorsMixin):
    """A recording array wrapper: reads and writes mark element masks.

    Not an ndarray subclass — every access funnels through ``__getitem__``
    / ``__setitem__`` (or ``__array__`` for whole-array conversions), so a
    kernel cannot touch an element without the sanitizer seeing it.  The
    mixin's operators go through ``__array_ufunc__``: ``v + x`` reads ``v``
    whole, and ``v += x`` is refused like any ``out=`` shared array.
    ``reshape`` returns a wrapper over reshaped *views* of the same data
    and masks (FFT's flat checksum indexing stays exact).
    """

    __slots__ = ("data", "read_mask", "write_mask")

    def __init__(self, data: np.ndarray,
                 read_mask: Optional[np.ndarray] = None,
                 write_mask: Optional[np.ndarray] = None):
        self.data = data
        self.read_mask = (np.zeros(data.shape, bool)
                          if read_mask is None else read_mask)
        self.write_mask = (np.zeros(data.shape, bool)
                           if write_mask is None else write_mask)

    # ---- shape protocol -------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __len__(self):
        return len(self.data)

    # ---- recorded accesses ---------------------------------------------
    def __getitem__(self, idx):
        self.read_mask[idx] = True
        return np.array(self.data[idx], copy=True)

    def __setitem__(self, idx, value):
        if isinstance(value, ShadowArray):
            value.read_mask[...] = True
            value = value.data
        self.write_mask[idx] = True
        self.data[idx] = value

    def __array__(self, dtype=None, copy=None):
        self.read_mask[...] = True
        data = self.data
        return data.astype(dtype) if dtype is not None else np.array(data)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        # a ufunc reads a wrapper whole (like ``__array__``); it may not
        # write one: kernels write shared arrays by subscript assignment
        if any(isinstance(o, ShadowArray) for o in kwargs.get("out", ())):
            raise TypeError(
                f"{ufunc.__name__}: out= targets a shared array; a kernel "
                f"writes shared arrays only by subscript assignment "
                f"(v[idx] = x, v[idx] += x), and out= may target only a "
                f"kernel-local buffer")
        inputs = tuple(x._full() if isinstance(x, ShadowArray) else x
                       for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ShadowArray(self.data.reshape(shape),
                           self.read_mask.reshape(shape),
                           self.write_mask.reshape(shape))

    def astype(self, dtype):
        self.read_mask[...] = True
        return self.data.astype(dtype)

    def copy(self):
        self.read_mask[...] = True
        return self.data.copy()

    # a ufunc on the whole wrapper counts as a full read
    def _full(self):
        self.read_mask[...] = True
        return self.data


def _declared_masks(stmt, chunk, raw: dict) -> tuple:
    """(read_masks, write_masks) granted to this chunk by the declarations,
    mirroring exactly what the SPF backend would make coherent."""
    reads = {name: np.zeros(arr.shape, bool) for name, arr in raw.items()}
    writes = {name: np.zeros(arr.shape, bool) for name, arr in raw.items()}
    for which, masks in (("reads", reads), ("writes", writes)):
        for acc in getattr(stmt, which):
            mask = masks[acc.array]
            fp = chunk.footprint(acc, mask.shape, raw)
            if isinstance(fp, Elements):
                # runs of fp.span elements (whole rows of a cyclic chunk)
                runs = np.asarray(fp.flat, dtype=np.int64) // fp.span
                mask.reshape(-1, fp.span)[runs] = True
            else:
                mask[acc.as_index(fp)] = True
    return reads, writes


def _sample_coords(extra: np.ndarray, limit: int = 3) -> str:
    coords = np.argwhere(extra)[:limit]
    return ", ".join(str(tuple(int(x) for x in c)) for c in coords)


def _check_footprints(program: Program, nprocs: int) -> list:
    findings = []
    seen = set()
    shadow = {d.name: ShadowArray(np.zeros(d.shape, dtype=d.dtype))
              for d in program.arrays}
    raw = {name: s.data for name, s in shadow.items()}

    def emit(rule, stmt, window, array, mode, count, sample, hint):
        key = (rule, stmt_family(stmt.name), array, mode)
        if key in seen:
            return
        seen.add(key)
        findings.append(Finding(
            rule=rule, severity="error", program=program.name,
            stmt=stmt.name, array=array, window=window,
            message=f"kernel {mode} {count} element(s) outside the "
                    f"declared {mode[:-1]} region, e.g. at {sample}",
            hint=hint, details={"mode": mode, "count": int(count)}))

    def emit_lost(stmt, window, array):
        key = ("lost-write", stmt_family(stmt.name), array)
        if key in seen:
            return
        seen.add(key)
        findings.append(Finding(
            rule="lost-write", severity="error", program=program.name,
            stmt=stmt.name, array=array, window=window,
            message=f"a write of {array!r} is declared but no chunk "
                    f"writes it",
            hint="write shared arrays by subscript assignment (v[idx] = x "
                 "or v[idx] += x); out= into a view of one writes a copy"))

    def reset_masks():
        for s in shadow.values():
            if s.read_mask.any():
                s.read_mask[...] = False
            if s.write_mask.any():
                s.write_mask[...] = False

    for stmt, window in program.flat_statements_with_window():
        if isinstance(stmt, Mark):
            continue
        accumulate = list(getattr(stmt, "accumulate", ()))
        for name in accumulate:
            raw[name][...] = 0          # sequential accumulate semantics
        written = set()
        for chunk in _chunks(stmt, nprocs):
            reset_masks()
            decl_r, decl_w = _declared_masks(stmt, chunk, raw)
            views = dict(shadow)
            buffers = {}
            for name in accumulate:
                # the backend redirects accumulation to a private buffer
                # and merges afterwards; only nonzero contributions are
                # observable, exactly like _stage_contributions
                buffers[name] = views[name] = np.zeros(
                    raw[name].shape, dtype=raw[name].dtype)
            if isinstance(stmt, SeqBlock):
                partials = stmt.kernel(views)
            else:
                partials, _cost = chunk.run(stmt, views)
            written.update(name for name, s in shadow.items()
                           if s.write_mask.any())
            for name, s in shadow.items():
                extra_w = s.write_mask & ~decl_w[name]
                if extra_w.any():
                    emit("footprint", stmt, window, name, "writes",
                         extra_w.sum(), _sample_coords(extra_w),
                         "widen the declared write Access or fix the "
                         "kernel")
                granted = decl_r[name] | decl_w[name]
                extra_r = s.read_mask & ~granted
                if extra_r.any():
                    emit("footprint", stmt, window, name, "reads",
                         extra_r.sum(), _sample_coords(extra_r),
                         "widen the declared read Access or fix the "
                         "kernel")
            for name, buf in buffers.items():
                contrib = buf != 0
                extra = contrib & ~decl_w[name]
                if extra.any():
                    emit("footprint", stmt, window, name, "writes",
                         extra.sum(), _sample_coords(extra),
                         "widen the declared accumulate footprint or fix "
                         "the kernel")
                raw[name] += buf        # merge, like the synthetic loop
            if isinstance(stmt, ParallelLoop) and stmt.reductions:
                for red in stmt.reductions:
                    if not isinstance(partials, dict) \
                            or red.name not in partials:
                        key = ("wf-reduction", stmt_family(stmt.name),
                               red.name, "red")
                        if key not in seen:
                            seen.add(key)
                            findings.append(Finding(
                                rule="wf-reduction", severity="error",
                                program=program.name, stmt=stmt.name,
                                array=None, window=window,
                                message=f"reduction {red.name!r} declared "
                                        f"but the kernel returned no "
                                        f"partial for it",
                                hint="return {name: value} from the "
                                     "kernel or drop the Reduction"))
        for acc in stmt.writes:
            if acc.array not in accumulate and acc.array not in written:
                emit_lost(stmt, window, acc.array)
    return findings


# ---------------------------------------------------------------------- #
# rule 3: redundant synchronization

def _check_redundant_barriers(exe) -> list:
    """Every adjacent loop pair the SPF planner fuses under ``fuse_loops``
    but ``exe`` dispatches apart (first occurrence per family pair)."""
    if exe.options.fuse_loops:
        return []                   # the compiler already fuses
    program, nprocs = exe.program, exe.nprocs
    fused = compile_spf(program, nprocs, replace(exe.options,
                                                 fuse_loops=True))
    findings = []
    seen = set()
    window = "setup"
    for unit in fused.units:
        window = MARK_WINDOWS.get(unit.mark, window)
        for prev, stmt in zip(unit.loops, unit.loops[1:]):
            key = (stmt_family(prev.name), stmt_family(stmt.name))
            if key in seen:
                continue
            seen.add(key)
            findings.append(Finding(
                rule="redundant-barrier", severity="warning",
                program=program.name, stmt=stmt.name, window=window,
                message=f"the barrier pair between {prev.name!r} and "
                        f"{stmt.name!r} is eliminable: no "
                        f"cross-processor dependence at n={nprocs} "
                        f"(exact symbolic chunk sets)",
                hint="compile with SpfOptions(fuse_loops=True) to "
                     "fuse the dispatch (Tseng barrier elimination)",
                details={"pred": prev.name}))
    return findings


# ---------------------------------------------------------------------- #
# rule 4: false sharing

def _loop_write_pages(exe, loop: ParallelLoop, space: SharedSpace,
                      pid: int) -> dict:
    """{array: page ndarray} written by pid's chunk, per the SPF layout."""
    out = {}
    chunk = exe.chunk(loop, pid)
    if not chunk.count:
        return out
    for acc in loop.writes:
        if acc.array in loop.accumulate:
            continue                # redirected to the staging array
        if acc.irregular:
            continue                # data-dependent: not statically known
        out.setdefault(acc.array, []).append(
            chunk.pages(acc, space[acc.array]))
    for name in loop.accumulate:
        # each pid writes its own staging row; rows are not page padded
        handle = space[STAGING_PREFIX + name]
        pages = handle.region_pages((slice(pid, pid + 1),))
        out.setdefault(STAGING_PREFIX + name, []).append(pages)
    return {name: sorted_unique(np.concatenate(page_sets))
            for name, page_sets in out.items()}


def _check_false_sharing(exe) -> list:
    program, nprocs = exe.program, exe.nprocs
    space = SharedSpace()
    exe.setup_space(space)
    findings = []
    seen = set()
    for stmt, window in program.flat_statements_with_window():
        if not isinstance(stmt, ParallelLoop):
            continue
        fam = stmt_family(stmt.name)
        if fam in seen:
            continue
        seen.add(fam)
        writers: dict = {}          # (array, page) -> set of pids
        for pid in range(nprocs):
            for name, pages in _loop_write_pages(exe, stmt, space,
                                                 pid).items():
                for page in pages.tolist():
                    writers.setdefault((name, page), set()).add(pid)
        by_array: dict = {}
        for (name, page), pids in writers.items():
            if len(pids) >= 2:
                by_array.setdefault(name, []).append((page, len(pids)))
        if not by_array:
            continue
        total_pages = sum(len(v) for v in by_array.values())
        extra_diffs = sum(w for v in by_array.values() for _, w in v)
        arrays = ", ".join(sorted(by_array))
        findings.append(Finding(
            rule="false-sharing", severity="warning",
            program=program.name, stmt=stmt.name, window=window,
            message=f"chunk boundaries straddle pages: {total_pages} "
                    f"page(s) of {arrays} written by >= 2 processors "
                    f"(page size {PAGE_SIZE}); expect ~{extra_diffs} "
                    f"extra twin/diff pairs per instance",
            hint="page-align the partition (rows x itemsize a multiple "
                 "of the page size) or pad rows",
            details={name: sorted(pages) for name, pages in
                     by_array.items()}))
    return findings


# ---------------------------------------------------------------------- #
# rule 5: traffic prediction (the analytic model's protocol replica)

def estimate_spf_traffic(program: Program, nprocs: int = 8,
                         options=None) -> TrafficEstimate:
    """Predict the SPF variant's whole-run DSM counters.

    Runs the analytic model's LRC replica once over the compiled dispatch
    schedule.  Programs with irregular or accumulate loops are reported
    unanalyzable — their footprints exist only at run time, which is
    exactly where the paper's compilers fall back to on-demand fetching
    (SPF) or broadcast-everything (XHPF).
    """
    from repro.compiler.model import _SpfModel

    def refuse(reason: str) -> TrafficEstimate:
        return TrafficEstimate(analyzable=False, nprocs=nprocs, reason=reason)

    for flag in ("aggregate", "piggyback", "tree_reductions", "push_halos"):
        if options is not None and getattr(options, flag, None):
            return refuse(f"hand-optimized code generation ({flag}) is not "
                          f"modeled")
    model = _SpfModel(program, nprocs, SP2_MODEL, options)
    for unit in model.exe.units:
        for loop in unit.loops:
            if loop.irregular:
                return refuse(f"irregular access in loop {loop.name!r}")
            if loop.accumulate:
                return refuse(f"run-time accumulate footprint in loop "
                              f"{loop.name!r}")
    model.run()
    dsm = model.dsm_stats
    return TrafficEstimate(
        analyzable=True, nprocs=nprocs,
        read_faults=dsm.read_faults, write_faults=dsm.write_faults,
        fetches=dsm.fetches, diffs_applied=dsm.diffs_applied,
        twins_created=dsm.twins_created, diffs_created=dsm.diffs_created,
        lock_acquires=dsm.lock_acquires,
        est_messages=model.traffic.messages,
        est_diff_kb=dsm.diff_bytes_applied / 1024.0)


# ---------------------------------------------------------------------- #
# driver

def _apply_suppressions(findings: list, suppress) -> tuple:
    if not suppress:
        return findings, 0
    kept = []
    dropped = 0
    for f in findings:
        probe = (f.rule, f"{f.rule}:{stmt_family(f.stmt)}")
        if any(fnmatch(p, pat) for p in probe for pat in suppress):
            dropped += 1
        else:
            kept.append(f)
    return kept, dropped


def lint_program(program: Program, nprocs: int = 8, *, options=None,
                 backends: tuple = ("spf", "xhpf"), shadow: bool = True,
                 traffic: bool = False, suppress=()) -> LintReport:
    """Run every lint rule over one program instance.

    ``options`` are the :class:`~repro.compiler.spf.SpfOptions` the
    program would be compiled with (fused loops silence the
    redundant-barrier rule); ``backends`` selects which backend-specific
    rule sets apply; ``shadow`` enables the footprint sanitizer (it
    executes every kernel once); ``traffic`` attaches the DSM traffic
    estimate (the protocol replica: it too executes every kernel once).
    """
    findings = _check_wellformed(program, nprocs, backends)
    fatal = any(f.severity == "error" for f in findings)
    if not fatal:
        # later rules resolve regions and run kernels: only sound on a
        # well-formed program
        if shadow:
            findings += _check_footprints(program, nprocs)
        if "spf" in backends:
            exe = compile_spf(program, nprocs, options)
            findings += _check_redundant_barriers(exe)
            findings += _check_false_sharing(exe)
    estimate = None
    if traffic and not fatal and "spf" in backends:
        estimate = estimate_spf_traffic(program, nprocs, options)
    findings, suppressed = _apply_suppressions(findings, suppress)
    return LintReport(program=program.name, nprocs=nprocs,
                      findings=findings, traffic=estimate,
                      suppressed=suppressed)

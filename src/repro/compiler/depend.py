"""Symbolic cross-iteration dependence engine and static race analysis.

This module answers the compile-time question "may two *different
iterations* of one loop touch the same element?" exactly, for the affine
region language of the IR, and builds three layers on the answer:

1. **Per-pair subscript tests** (:func:`pair_dependence`).  For two
   affine accesses to the same array, each dimension contributes an
   interval constraint on the iteration pair ``(i, j)`` or on the
   dependence distance ``d = j - i``:

   * ``Span(a_lo, a_hi)`` × ``Span(b_lo, b_hi)``:  iteration ``i``'s
     footprint is ``[i + a_lo, i + a_hi]`` (inclusive rows), so a shared
     element needs ``d ∈ [a_lo - b_hi, a_hi - b_lo]``;
   * ``Span`` × ``Point(c)``:  needs ``i ∈ [c - a_hi, c - a_lo]``
     (and symmetrically a ``j`` interval for ``Point`` × ``Span``);
   * ``Point(c1)`` × ``Point(c2)``:  ``c1 != c2`` kills the pair,
     equality constrains nothing;
   * ``Full`` constrains nothing.

   The conjunction over dimensions is a box over ``(i, j, d)``; the pair
   carries a cross-iteration dependence iff the box intersected with the
   iteration space contains a point with ``d != 0``.  Distance/direction
   vectors fall straight out of the feasible ``d`` interval.

2. **A verdict lattice per loop** (:func:`analyze_loop`):

   * ``PROVEN_PARALLEL`` — every conflicting pair's feasible set is
     empty (sound: the feasible set over-approximates reality because
     edge clipping only removes conflicts);
   * ``PROVEN_SERIAL`` — some pair has a *concretely confirmed* witness:
     the engine resolves both accesses at the candidate iterations
     through ``Access.resolve`` (which clips) and intersects the two
     index sets, so a claim of serial is never an artifact of the
     un-clipped approximation;
   * ``UNKNOWN`` — anything the algebra cannot decide.  Any
     :class:`~repro.compiler.ir.Irregular` access or computed ``Point``
     puts the loop here, *never* in a PROVEN class; feasible-but-
     unconfirmed pairs do too.

   Reduction folding and accumulate-array staging are runtime-ordered
   (lock / private-buffer mechanisms), so those accesses are excluded
   from the pair tests — exactly like the fusion test does.

3. **May-happen-in-parallel over the sync IR** (:func:`mhp_pairs`) and
   the exact chunk-set algebra (:func:`chunk_sets`,
   :func:`dim_sets_intersect`, :func:`loops_fusable_exact` — the one
   fusability test) that gives cyclic schedules residue-class
   (GCD/Diophantine) intersection tests instead of a bounding interval.
   It is the compiler's one footprint-overlap algebra: witness
   confirmation above and ``report.footprint_report`` use it too.

Consumers: the SPF backend's ``fuse_loops`` planning, the speculative
``spf_spec`` backend (:mod:`repro.compiler.spf_spec`), the ``repro lint``
barrier rule (through the planner's units), and the ``repro racecheck
--cross-check`` harness, which
validates the static verdicts against the dynamic race detector.
:func:`inject_dependence` supports the latter's mutation tests: it
widens or adds *declared* footprints (kernels untouched) so a claimed
PROVEN-PARALLEL verdict must demonstrably flip.

See docs/DEPEND.md for the evidence format.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.compiler.ir import (Access, FootprintError, Full, Irregular,
                               ParallelLoop, Point, Program, Span, TimeLoop)
from repro.compiler.partition import Chunk, loop_chunk

__all__ = ["PROVEN_PARALLEL", "PROVEN_SERIAL", "UNKNOWN",
           "Dependence", "LoopVerdict", "DependReport", "MhpPair",
           "Mutation", "pair_dependence", "analyze_loop", "analyze_program",
           "mhp_pairs", "Interval", "Strided", "dim_sets_intersect",
           "chunk_sets", "sets_conflict", "loops_fusable_exact",
           "eligible_mutation_targets", "inject_dependence", "stmt_family",
           "tag_family"]

PROVEN_PARALLEL = "proven-parallel"
PROVEN_SERIAL = "proven-serial"
UNKNOWN = "unknown"

_SEVERITY = {PROVEN_PARALLEL: 0, UNKNOWN: 1, PROVEN_SERIAL: 2}


def stmt_family(name: str) -> str:
    """Statement family: ``orthogonalize[5]`` -> ``orthogonalize``.

    TimeLoop factories stamp the outer index into statement names; the
    dependence verdicts and lint's rules (and their suppressions) work per
    family, not per instance.
    """
    return name.split("[")[0]


def tag_family(tag: str) -> str:
    """Loop family of a race-monitor source tag ``"<unit name>:<array>"``."""
    return stmt_family(tag.split(":")[0])


def _region_str(region) -> str:
    if isinstance(region, Irregular):
        return "irregular"
    parts = []
    for d in region:
        if isinstance(d, Span):
            parts.append(f"Span({d.lo_off:+d},{d.hi_off:+d})"
                         if (d.lo_off or d.hi_off) else "Span")
        elif isinstance(d, Full):
            parts.append("Full")
        elif isinstance(d, Point):
            parts.append("Point(fn)" if callable(d.index)
                         else f"Point({d.index})")
        else:
            parts.append(type(d).__name__)
    return "(" + ", ".join(parts) + ")"


# ---------------------------------------------------------------------- #
# per-pair subscript test

@dataclass(frozen=True)
class Dependence:
    """Evidence for one conflicting access pair of a loop.

    ``witness`` is a concrete conflicting iteration pair ``(i, j)``
    (``confirmed`` True means the resolved footprints at those iterations
    were checked to really overlap); ``distance_range`` is the feasible
    interval of ``d = j - i`` (0 excluded when it is an endpoint only).
    """

    array: str
    kind: str                       # flow | anti | output | possible
    access_a: str                   # region of the source (write) access
    access_b: str
    distance: Optional[int]         # confirmed distance, None if unconfirmed
    distance_range: tuple           # feasible (dmin, dmax)
    direction: str                  # "<" | ">" | "*"
    witness: Optional[tuple]        # (i, j) conflicting iterations
    confirmed: bool

    def describe(self) -> str:
        where = (f"iterations i={self.witness[0]}, j={self.witness[1]}"
                 if self.witness else "no confirmed iteration pair")
        dist = (f"distance {self.distance:+d}" if self.distance is not None
                else f"distance in [{self.distance_range[0]}, "
                     f"{self.distance_range[1]}]")
        return (f"{self.kind} dependence on {self.array!r}: "
                f"{self.access_a} vs {self.access_b}, {dist}, "
                f"direction {self.direction!r}, {where}")

    def as_doc(self) -> dict:
        return {"array": self.array, "kind": self.kind,
                "access_a": self.access_a, "access_b": self.access_b,
                "distance": self.distance,
                "distance_range": list(self.distance_range),
                "direction": self.direction,
                "witness": list(self.witness) if self.witness else None,
                "confirmed": self.confirmed}


def _point_value(dim: Point, extent: int) -> Optional[int]:
    return None if callable(dim.index) else dim.resolve(0, 0, extent)[0]


def _pair_box(acc_a: Access, acc_b: Access, loop: ParallelLoop,
              shape: tuple):
    """Constraint box over (i, j, d=j-i) for one ordered access pair.

    Returns ``("none", None)``, ``("unknown", reason)``, or
    ``("box", (ilo, ihi, jlo, jhi, dmin, dmax))`` with all bounds
    inclusive and the iteration space / d-range already folded in.
    """
    start, extent = loop.start, loop.extent
    n_iters = extent - start
    if n_iters <= 1:
        return "none", None
    ilo, ihi = start, extent - 1
    jlo, jhi = start, extent - 1
    dlo, dhi = -(n_iters - 1), n_iters - 1
    dims_a, dims_b = acc_a.region, acc_b.region
    for d in range(max(len(dims_a), len(dims_b))):
        da = dims_a[d] if d < len(dims_a) else Full()
        db = dims_b[d] if d < len(dims_b) else Full()
        if isinstance(da, Full) or isinstance(db, Full):
            continue
        if isinstance(da, Span) and isinstance(db, Span):
            dlo = max(dlo, da.lo_off - db.hi_off)
            dhi = min(dhi, da.hi_off - db.lo_off)
        elif isinstance(da, Span) and isinstance(db, Point):
            c = _point_value(db, shape[d])
            if c is None:
                return "unknown", f"computed Point index in dim {d}"
            ilo, ihi = max(ilo, c - da.hi_off), min(ihi, c - da.lo_off)
        elif isinstance(da, Point) and isinstance(db, Span):
            c = _point_value(da, shape[d])
            if c is None:
                return "unknown", f"computed Point index in dim {d}"
            jlo, jhi = max(jlo, c - db.hi_off), min(jhi, c - db.lo_off)
        elif isinstance(da, Point) and isinstance(db, Point):
            ca = _point_value(da, shape[d])
            cb = _point_value(db, shape[d])
            if ca is None or cb is None:
                return "unknown", f"computed Point index in dim {d}"
            if ca != cb:
                return "none", None
        else:
            return "unknown", (f"unsupported dim expression "
                               f"{type(da).__name__}/{type(db).__name__}")
    dmin = max(dlo, jlo - ihi)
    dmax = min(dhi, jhi - ilo)
    if ihi < ilo or jhi < jlo or dmax < dmin or (dmin == 0 == dmax):
        return "none", None
    return "box", (ilo, ihi, jlo, jhi, dmin, dmax)


def _confirm(acc_a: Access, acc_b: Access, i: int, j: int,
             shape: tuple) -> bool:
    """Do the *clipped* footprints at iterations i and j really overlap?"""
    try:
        sets_a = _resolved_sets(acc_a, i, i + 1, shape)
        sets_b = _resolved_sets(acc_b, j, j + 1, shape)
    except FootprintError:
        return False
    return all(map(dim_sets_intersect, sets_a, sets_b))


def pair_dependence(acc_a: Access, acc_b: Access, loop: ParallelLoop,
                    shape: tuple):
    """Exact cross-iteration test for one ordered affine access pair.

    Returns ``("none", None)`` when no two distinct iterations can touch
    a common element, ``("unknown", reason)`` when the algebra cannot
    decide, or ``("dep", info)`` with ``info`` a dict holding the
    feasible distance range and — when a candidate could be concretely
    confirmed — a witness ``(i, j)`` and its distance.
    """
    status, payload = _pair_box(acc_a, acc_b, loop, shape)
    if status != "box":
        return status, payload
    ilo, ihi, jlo, jhi, dmin, dmax = payload
    direction = "<" if dmin > 0 else (">" if dmax < 0 else "*")
    candidates = []
    for d in (1, -1, dmin, dmax):
        if dmin <= d <= dmax and d != 0 and d not in candidates:
            candidates.append(d)
    for d in candidates:
        wlo, whi = max(ilo, jlo - d), min(ihi, jhi - d)
        if whi < wlo:
            continue
        mid = (wlo + whi) // 2
        for i in dict.fromkeys((mid, wlo, whi)):
            if _confirm(acc_a, acc_b, i, i + d, shape):
                return "dep", {"distance": d, "witness": (i, i + d),
                               "range": (dmin, dmax),
                               "direction": "<" if d > 0 else ">",
                               "confirmed": True}
    return "dep", {"distance": None, "witness": None,
                   "range": (dmin, dmax), "direction": direction,
                   "confirmed": False}


# ---------------------------------------------------------------------- #
# per-loop verdicts

@dataclass
class LoopVerdict:
    """Static classification of one parallel loop (family)."""

    loop: str
    verdict: str
    dependences: list = field(default_factory=list)   # [Dependence]
    unknowns: list = field(default_factory=list)      # [reason str]
    schedule: str = "block"
    extent: int = 0
    start: int = 0
    instances: int = 1

    def as_doc(self) -> dict:
        return {"loop": self.loop, "verdict": self.verdict,
                "dependences": [d.as_doc() for d in self.dependences],
                "unknowns": list(self.unknowns),
                "schedule": self.schedule, "extent": self.extent,
                "start": self.start, "instances": self.instances}

    def explain(self) -> str:
        lines = [f"loop {self.loop!r}: {self.verdict.upper()} "
                 f"({self.schedule} schedule, iterations "
                 f"[{self.start}, {self.extent}), "
                 f"{self.instances} instance(s))"]
        for reason in self.unknowns:
            lines.append(f"  unknown: {reason}")
        for dep in self.dependences:
            lines.append(f"  {dep.describe()}")
        if not self.unknowns and not self.dependences:
            lines.append("  no feasible cross-iteration conflict "
                         "(all subscript pairs proved disjoint)")
        return "\n".join(lines)


def analyze_loop(loop: ParallelLoop, program: Program) -> LoopVerdict:
    """Classify one loop as PROVEN-PARALLEL / PROVEN-SERIAL / UNKNOWN."""
    unknowns, deps = [], []
    for acc in list(loop.reads) + list(loop.writes):
        if acc.irregular:
            unknowns.append(f"irregular access to {acc.array!r} "
                            f"(run-time footprint)")
    staged = set(loop.accumulate)
    writes = [a for a in loop.writes
              if not a.irregular and a.array not in staged]
    reads = [a for a in loop.reads
             if not a.irregular and a.array not in staged]
    pairs = [(wa, rb, "read") for wa in writes for rb in reads
             if wa.array == rb.array]
    pairs += [(writes[x], writes[y], "write")
              for x in range(len(writes)) for y in range(x, len(writes))
              if writes[x].array == writes[y].array]
    for wa, other, role in pairs:
        shape = program.decl(wa.array).shape
        status, info = pair_dependence(wa, other, loop, shape)
        if status == "none":
            continue
        if status == "unknown":
            unknowns.append(f"{wa.array!r} {_region_str(wa.region)} vs "
                            f"{_region_str(other.region)}: {info}")
            continue
        if role == "write":
            kind = "output"
        elif info["confirmed"]:
            kind = "flow" if info["distance"] > 0 else "anti"
        else:
            kind = "possible"
        deps.append(Dependence(
            array=wa.array, kind=kind,
            access_a=_region_str(wa.region),
            access_b=_region_str(other.region),
            distance=info["distance"], distance_range=info["range"],
            direction=info["direction"], witness=info["witness"],
            confirmed=info["confirmed"]))
    if unknowns:
        # An Irregular access or computed Point anywhere in the loop
        # forfeits both PROVEN classes (see docs/DEPEND.md).
        verdict = UNKNOWN
    elif any(d.confirmed for d in deps):
        verdict = PROVEN_SERIAL
    elif deps:
        verdict = UNKNOWN
    else:
        verdict = PROVEN_PARALLEL
    return LoopVerdict(loop=stmt_family(loop.name), verdict=verdict,
                       dependences=deps, unknowns=unknowns,
                       schedule=loop.schedule, extent=loop.extent,
                       start=loop.start)


# ---------------------------------------------------------------------- #
# may-happen-in-parallel over the sync IR

@dataclass(frozen=True)
class MhpPair:
    """Two loop families whose chunks may execute concurrently."""

    a: str
    b: str
    why: str

    def as_doc(self) -> dict:
        return {"a": self.a, "b": self.b, "why": self.why}


def mhp_pairs(program: Program, nprocs: int = 8,
              options=None) -> list:
    """May-happen-in-parallel pairs under the fork-join sync structure.

    Every parallel loop's chunks run concurrently with themselves between
    fork and join; distinct statements are otherwise ordered by the
    implied barrier at every join — unless fusion (``fuse_loops``)
    eliminated the barrier, in which case the fused loops' chunks overlap
    across processors.  Reduction folds and accumulate staging never
    appear here: the lock (resp. the private per-processor staging row)
    orders them by construction.
    """
    pairs, seen = [], set()
    for stmt in program.flat_statements():
        if isinstance(stmt, ParallelLoop):
            fam = stmt_family(stmt.name)
            if fam not in seen:
                seen.add(fam)
                pairs.append(MhpPair(fam, fam,
                                     "chunks of one fork-join dispatch "
                                     "run concurrently"))
    if options is not None and getattr(options, "fuse_loops", False):
        from repro.compiler.spf import compile_spf
        exe = compile_spf(program, nprocs, options)
        fused_seen = set()
        for unit in exe.units:
            loops = unit.loops or []
            for x in range(len(loops)):
                for y in range(x + 1, len(loops)):
                    key = (stmt_family(loops[x].name),
                           stmt_family(loops[y].name))
                    if key[0] != key[1] and key not in fused_seen:
                        fused_seen.add(key)
                        pairs.append(MhpPair(
                            key[0], key[1],
                            "barrier eliminated by fusion: chunks of "
                            "both loops overlap across processors"))
    return pairs


# ---------------------------------------------------------------------- #
# whole-program report

@dataclass
class DependReport:
    """Verdicts for every loop family plus the MHP pairs."""

    program: str
    nprocs: int
    verdicts: dict                     # family -> LoopVerdict
    mhp: list = field(default_factory=list)

    def counts(self) -> dict:
        out = {PROVEN_PARALLEL: 0, PROVEN_SERIAL: 0, UNKNOWN: 0}
        for v in self.verdicts.values():
            out[v.verdict] += 1
        return out

    def as_doc(self) -> dict:
        return {"schema": "repro-depend/1", "program": self.program,
                "nprocs": self.nprocs, "counts": self.counts(),
                "verdicts": {fam: v.as_doc()
                             for fam, v in sorted(self.verdicts.items())},
                "mhp": [p.as_doc() for p in self.mhp]}

    def explain(self, family: Optional[str] = None) -> str:
        if family is not None:
            if family not in self.verdicts:
                known = ", ".join(sorted(self.verdicts))
                return (f"no parallel loop family {family!r} in "
                        f"{self.program!r} (known: {known})")
            lines = [self.verdicts[family].explain()]
            for p in self.mhp:
                if family in (p.a, p.b):
                    lines.append(f"  MHP with {p.b if p.a == family else p.a}"
                                 f": {p.why}")
            return "\n".join(lines)
        counts = self.counts()
        lines = [f"dependence report — {self.program!r}: "
                 f"{counts[PROVEN_PARALLEL]} proven-parallel, "
                 f"{counts[PROVEN_SERIAL]} proven-serial, "
                 f"{counts[UNKNOWN]} unknown"]
        for fam in sorted(self.verdicts):
            lines.append(self.verdicts[fam].explain())
        return "\n".join(lines)


def analyze_program(program: Program, nprocs: int = 8,
                    options=None) -> DependReport:
    """Analyze every parallel loop; per family, keep the worst instance.

    Loop instances of one family (``name[t]`` unrolled from a TimeLoop)
    can differ in ``start`` (mgs's triangular loops do), so each instance
    is analyzed and the family reports the weakest verdict seen
    (PROVEN-SERIAL > UNKNOWN > PROVEN-PARALLEL in severity).
    """
    verdicts: dict = {}
    for stmt in program.flat_statements():
        if not isinstance(stmt, ParallelLoop):
            continue
        fam = stmt_family(stmt.name)
        v = analyze_loop(stmt, program)
        prev = verdicts.get(fam)
        if prev is None:
            verdicts[fam] = v
        else:
            prev.instances += 1
            if _SEVERITY[v.verdict] > _SEVERITY[prev.verdict]:
                v.instances = prev.instances
                verdicts[fam] = v
    return DependReport(program.name, nprocs, verdicts,
                        mhp_pairs(program, nprocs, options))


# ---------------------------------------------------------------------- #
# exact chunk sets

@dataclass(frozen=True)
class Interval:
    """Half-open index interval ``[lo, hi)``."""

    lo: int
    hi: int

    @property
    def empty(self) -> bool:
        return self.hi <= self.lo


@dataclass(frozen=True)
class Strided:
    """Union of ``count`` blocks ``[start + k*step, start + k*step +
    width)`` — a cyclic chunk's exact footprint along a Span dimension."""

    start: int
    step: int
    count: int
    width: int

    @property
    def empty(self) -> bool:
        return self.count <= 0 or self.width <= 0


def _make_strided(start: int, step: int, count: int, width: int):
    if count <= 0 or width <= 0:
        return Interval(0, 0)
    if count == 1 or width >= step:
        return Interval(start, start + (count - 1) * step + width)
    return Strided(start, step, count, width)


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _ext_gcd(a: int, b: int):
    if b == 0:
        return a, 1, 0
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


def _diophantine_in_range(sa: int, sb: int, c: int,
                          m_count: int, n_count: int) -> bool:
    """Is there ``m in [0, m_count)``, ``n in [0, n_count)`` with
    ``m*sa - n*sb == c``?"""
    g, x, y = _ext_gcd(sa, sb)
    if c % g:
        return False
    scale = c // g
    m0, n0 = x * scale, -y * scale
    pa, pb = sb // g, sa // g         # m += pa, n += pb leaves c fixed
    t_lo = max(_ceil_div(-m0, pa), _ceil_div(-n0, pb))
    t_hi = min((m_count - 1 - m0) // pa, (n_count - 1 - n0) // pb)
    return t_lo <= t_hi


def dim_sets_intersect(a, b) -> bool:
    """Do two per-dimension index sets share an element?

    An empty set (``hi <= lo``, inverted included) intersects nothing,
    not even itself or an enclosing set.  Strided × Strided
    reduces to a bounded linear Diophantine problem: block starts differ
    by ``m*step_a - n*step_b``, and two width-``w`` blocks overlap iff
    their starts differ by less than a width — so distinct residues
    modulo ``gcd(step_a, step_b)`` (e.g. different processors of one
    cyclic distribution) can be proved disjoint where the bounding
    interval says "maybe".
    """
    if isinstance(a, Interval) and isinstance(b, Interval):
        return max(a.lo, b.lo) < min(a.hi, b.hi)
    if isinstance(a, Interval):
        a, b = b, a
    if a.empty or b.empty:
        return False
    if isinstance(b, Interval):
        # block [start + k*step, ... + width) hits [b.lo, b.hi)?
        k_lo = max(0, _ceil_div(b.lo - a.width + 1 - a.start, a.step))
        k_hi = min(a.count - 1, (b.hi - 1 - a.start) // a.step)
        return k_lo <= k_hi
    # Strided × Strided: block-start difference delta = (a.start + m*sa)
    # - (b.start + n*sb) must satisfy -a.width < delta < b.width
    # (a's block reaches forward by a.width, b's by b.width).
    base = b.start - a.start
    for delta in range(-a.width + 1, b.width):
        if _diophantine_in_range(a.step, b.step, delta + base,
                                 a.count, b.count):
            return True
    return False


def _resolved_sets(acc: Access, lo: int, hi: int, shape: tuple) -> tuple:
    """One :class:`Interval` per dimension of ``Access.resolve``'s region
    for the block ``[lo, hi)``."""
    return tuple(Interval(*dim) for dim in acc.resolve(lo, hi, shape))


def chunk_sets(loop: ParallelLoop, which: str, chunk: Chunk,
               program: Program) -> Optional[dict]:
    """``{array: [per-dim index-set tuples]}`` touched by one processor's
    ``chunk`` of ``loop``.

    Exact for block chunks (contiguous iterations make contiguous Span
    footprints; ``Access.resolve`` clips them).  Cyclic chunks put a
    :class:`Strided` set on every Span dimension — deliberately
    *unclipped* at array edges and treated per-dimension independently,
    both over-approximations, which is the safe direction: every
    consumer uses these sets to prove the *absence* of a conflict.
    Returns ``None`` if any access is irregular.
    """
    out: dict = {}
    if not chunk.count:
        return out
    for acc in getattr(loop, which):
        if acc.irregular:
            return None
        shape = program.decl(acc.array).shape
        if not chunk.step:
            sets = _resolved_sets(acc, *chunk.bounds, shape)
        else:
            dims = []
            for d, extent in enumerate(shape):
                expr = acc.region[d] if d < len(acc.region) else Full()
                if isinstance(expr, Span):
                    dims.append(_make_strided(
                        chunk.lo + expr.lo_off, chunk.step, chunk.count,
                        1 + expr.hi_off - expr.lo_off))
                else:                  # Point, Full
                    dims.append(Interval(*expr.resolve(*chunk.bounds,
                                                       extent)))
            sets = tuple(dims)
        out.setdefault(acc.array, []).append(sets)
    return out


def sets_conflict(a_sets: Optional[dict], b_sets: Optional[dict]) -> bool:
    """May two chunk footprints share an element?  Unknown → assume yes."""
    if a_sets is None or b_sets is None:
        return True
    for array, tuples_a in a_sets.items():
        tuples_b = b_sets.get(array)
        if not tuples_b:
            continue
        for ta in tuples_a:
            for tb in tuples_b:
                if all(dim_sets_intersect(da, db)
                       for da, db in zip(ta, tb)):
                    return True
    return False


def loops_fusable_exact(a: ParallelLoop, b: ParallelLoop, nprocs: int,
                        program: Program) -> bool:
    """May the synchronization between adjacent loops ``a`` then ``b`` be
    removed (each processor runs its chunk of ``b`` right after its chunk
    of ``a``)?

    Required: for every pair of *distinct* processors p != q there is no
    flow (writes_a(p) ∩ reads_b(q)), anti (reads_a(p) ∩ writes_b(q)), or
    output (writes_a(p) ∩ writes_b(q)) dependence between their exact
    chunk sets.  Reductions and accumulation buffers force a
    synchronization, as does irregularity.  Chunks are
    :func:`partition.loop_chunk`'s, the SPF backend's policy.
    """
    if a.irregular or b.irregular:
        return False
    if a.reductions or a.accumulate:
        return False
    # footprints depend only on the owning processor: resolve each side's
    # per-processor sets once, not inside the pair loop
    was, ras, wbs, rbs = (
        [chunk_sets(loop, which, loop_chunk(loop, p, nprocs), program)
         for p in range(nprocs)]
        for loop, which in ((a, "writes"), (a, "reads"),
                            (b, "writes"), (b, "reads")))
    for p in range(nprocs):
        wa, ra = was[p], ras[p]
        for q in range(nprocs):
            if p == q:
                continue
            if (sets_conflict(wa, rbs[q]) or sets_conflict(wa, wbs[q])
                    or sets_conflict(ra, wbs[q])):
                return False
    return True


# ---------------------------------------------------------------------- #
# dependence-injection mutations (cross-check harness)

@dataclass(frozen=True)
class Mutation:
    """A declaration-only injected dependence (kernels untouched)."""

    seed: int
    family: str
    kind: str          # widen-write | read-back | add-write
    array: str

    def describe(self) -> str:
        what = {"widen-write": "widened a write Span by one row",
                "read-back": "added a one-behind read of a written array",
                "add-write": "declared a widened write over a read region"}
        return (f"seed {self.seed}: {what[self.kind]} on {self.array!r} "
                f"in loop {self.family!r}")

    def as_doc(self) -> dict:
        return {"seed": self.seed, "family": self.family,
                "kind": self.kind, "array": self.array}


def _span_dim_index(region) -> Optional[int]:
    if isinstance(region, Irregular):
        return None
    for d, expr in enumerate(region):
        if isinstance(expr, Span):
            return d
    return None


def eligible_mutation_targets(program: Program) -> list:
    """``(family, kind, array)`` triples where an injected dependence must
    flip a PROVEN-PARALLEL verdict."""
    report = analyze_program(program)
    out, seen = [], set()
    for stmt in program.flat_statements():
        if not isinstance(stmt, ParallelLoop):
            continue
        fam = stmt_family(stmt.name)
        if fam in seen:
            continue
        seen.add(fam)
        if report.verdicts[fam].verdict != PROVEN_PARALLEL:
            continue
        staged = set(stmt.accumulate)
        for acc in stmt.writes:
            if (not acc.irregular and acc.array not in staged
                    and _span_dim_index(acc.region) is not None):
                out.append((fam, "widen-write", acc.array))
                out.append((fam, "read-back", acc.array))
                break
        for acc in stmt.reads:
            if (not acc.irregular and acc.array not in staged
                    and _span_dim_index(acc.region) is not None):
                out.append((fam, "add-write", acc.array))
                break
    return out


def _mutate_loop(loop: ParallelLoop, kind: str, array: str) -> ParallelLoop:
    def widen(acc: Access) -> Access:
        d = _span_dim_index(acc.region)
        span = acc.region[d]
        region = (acc.region[:d]
                  + (Span(span.lo_off, span.hi_off + 1),)
                  + acc.region[d + 1:])
        return Access(acc.array, region)

    def shift_back(acc: Access) -> Access:
        d = _span_dim_index(acc.region)
        span = acc.region[d]
        region = (acc.region[:d]
                  + (Span(span.lo_off - 1, span.hi_off - 1),)
                  + acc.region[d + 1:])
        return Access(acc.array, region)

    reads, writes = list(loop.reads), list(loop.writes)
    if kind == "widen-write":
        idx = next(i for i, a in enumerate(writes)
                   if a.array == array and not a.irregular
                   and _span_dim_index(a.region) is not None)
        writes[idx] = widen(writes[idx])
    elif kind == "read-back":
        src = next(a for a in writes
                   if a.array == array and not a.irregular
                   and _span_dim_index(a.region) is not None)
        reads.append(shift_back(src))
    elif kind == "add-write":
        src = next(a for a in reads
                   if a.array == array and not a.irregular
                   and _span_dim_index(a.region) is not None)
        writes.append(widen(src))
    else:
        raise ValueError(f"unknown mutation kind {kind!r}")
    return replace(loop, reads=reads, writes=writes)


def inject_dependence(program: Program, seed: int = 0):
    """Seeded declaration-only dependence injection.

    Picks one eligible ``(family, kind, array)`` target with a seeded
    PRNG and returns ``(mutated_program, Mutation)``.  The mutation only
    *widens or adds declared footprints* — kernels are untouched, so the
    mutated program still runs (and still passes the shadow sanitizer:
    over-declaration is legal) but its target loop now carries a genuine
    declared cross-iteration dependence that the static engine must
    refuse to call PROVEN-PARALLEL.
    """
    targets = eligible_mutation_targets(program)
    if not targets:
        raise ValueError(f"no mutation-eligible loop in {program.name!r}")
    family, kind, array = random.Random(seed).choice(targets)

    def rebuild(stmt):
        if isinstance(stmt, ParallelLoop) and stmt_family(stmt.name) == family:
            return _mutate_loop(stmt, kind, array)
        if isinstance(stmt, TimeLoop):
            body = stmt.body
            if callable(body):
                new_body = (lambda t, _b=body:
                            [rebuild(s) for s in _b(t)])
            else:
                new_body = [rebuild(s) for s in body]
            return replace(stmt, body=new_body)
        return stmt

    mutated = replace(program, body=[rebuild(s) for s in program.body])
    return mutated, Mutation(seed=seed, family=family, kind=kind,
                             array=array)

"""The SPF analog: shared-memory code generation onto TreadMarks.

Reproduces the Forge SPF policies of Section 2.1:

* every array accessed in a parallel loop is allocated in shared memory,
  padded to page boundaries (including scratch arrays — the paper's Jacobi
  loses 2% exactly because of this),
* fork-join execution: the master runs all sequential code; each parallel
  loop (or fused group, see below) is dispatched to workers through the
  Section 2.3 interface — improved (2(n-1) messages) by default, original
  (8(n-1)) for the ablation,
* block or cyclic loop scheduling,
* scalar reductions through a private partial plus a lock-protected shared
  variable.

:class:`SpfOptions` exposes the paper's hand optimizations as compiler
flags, so the "Results of Hand Optimizations" experiments are one option
away from the baseline:

* ``aggregate`` — fetch each chunk footprint with the enhanced interface's
  aggregated validate instead of page-by-page faults (Jacobi 6.99→7.23,
  FFT 2.65→5.05),
* ``fuse_loops`` — merge adjacent parallel loops when the dependence test
  of :mod:`repro.compiler.depend` allows, eliminating the redundant
  barrier pairs (Tseng [17]; Shallow 5.71→5.96 together with aggregation),
* ``piggyback`` — an application hint that attaches freshly-written data to
  the fork message, merging synchronization and data (MGS's ith-vector
  broadcast, 3.35→~5.1).

The emitted program (:meth:`SpfExecutable.run_on` and everything it reaches)
is a generator of engine block requests, so each simulated processor runs it
as a generator process: no OS thread, kernels execute on the caller's.  A
footprint check that hits stays a plain call (:meth:`SpfExecutable._ensure`
returns ``None``); only a miss is delegated to with ``yield from``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.compiler import depend
from repro.compiler.ir import (Access, Full, Mark, ParallelLoop, Program,
                               SeqBlock, Span)
from repro.compiler.partition import SEQ, Chunk, Elements, loop_chunk
from repro.sim.cluster import RunResult
from repro.sim.faults import FaultPlan
from repro.sim.machine import MachineModel
from repro.tmk import enhanced
from repro.tmk.api import Tmk, tmk_run
from repro.tmk.forkjoin import (ImprovedForkJoin, OldForkJoin,
                                alloc_old_interface_control)
from repro.tmk.pagespace import SharedSpace

__all__ = ["SpfOptions", "SpfExecutable", "compile_spf", "run_spf"]

REDUCTION_PREFIX = "__red_"
STAGING_PREFIX = "__acc_"
_FOOTPRINT_MEMO_LIMIT = 4096   # (access, chunk) regions kept per executable


@dataclass
class SpfOptions:
    """Code-generation switches.

    Defaults are the unoptimized compiler of the paper's evaluation.
    ``aggregate``/``fuse_loops``/``piggyback`` are the paper's hand
    optimizations (Sections 5 and 8); ``tree_reductions`` and
    ``push_halos`` implement enhancements Section 8 proposes as future
    work:

    * ``tree_reductions`` — replace the lock-protected shared scalar with
      the dedicated combining-tree primitive (:mod:`repro.tmk.reduction`),
    * ``push_halos`` — producers push partition-boundary regions to the
      neighbours that will read them, at the join, instead of the default
      request-response ("pushing data instead of pulling").
    """

    improved_interface: bool = True
    aggregate: bool = False
    fuse_loops: bool = False
    piggyback: Optional[Callable] = None   # (stmt) -> [(array, region)] | None
    tree_reductions: bool = False
    push_halos: bool = False

    def describe(self) -> str:
        bits = ["improved" if self.improved_interface else "original"]
        for flag, label in [(self.aggregate, "aggregate"),
                            (self.fuse_loops, "fuse"),
                            (self.piggyback, "piggyback"),
                            (self.tree_reductions, "tree-red"),
                            (self.push_halos, "push")]:
            if flag:
                bits.append(label)
        return "+".join(bits)


@dataclass
class _Unit:
    """One fork-join dispatch: a master-only block, loop group, or mark."""

    seq: Optional[SeqBlock] = None
    loops: list = field(default_factory=list)
    mark: Optional[str] = None


def _ensure_order(accesses, accumulate) -> list:
    """Affine accesses first, then irregular ones.

    Irregular footprints are evaluated *at run time* against the local
    views (e.g. IGrid's footprint reads the shared indirection map), so the
    affine data they depend on must be faulted in first.  Accesses to
    accumulation buffers are redirected to private memory and need no
    coherence."""
    kept = [acc for acc in accesses if acc.array not in accumulate]
    return ([acc for acc in kept if not acc.irregular]
            + [acc for acc in kept if acc.irregular])


class SpfExecutable:
    """A compiled shared-memory program, runnable on a simulated cluster."""

    def __init__(self, program: Program, options: SpfOptions, nprocs: int):
        program.validate()
        self.program = program
        self.options = options
        self.nprocs = nprocs
        self.schedule = list(program.flat_statements())
        self.units = self._plan_units()
        self.reductions = self._collect_reductions()
        self.push_plan, self.expect_plan = (
            self._plan_halo_pushes() if options.push_halos else ({}, {}))
        # (id(access), chunk) -> (access, resolved region); see _footprint
        self._regions: dict = {}

    # ------------------------------------------------------------------ #
    # compilation

    def _plan_units(self) -> list:
        """Group the schedule into dispatch units (fusing when enabled).

        A loop with accumulation buffers is followed by a synthetic *merge*
        loop: the buffer-per-processor + add-after-the-loop structure the
        paper describes for NBF ("Each processor accumulates the force
        updates in a local buffer, and adds the buffers together after the
        force computation loop").
        """
        units: list[_Unit] = []
        tail = None          # the loop a following one may fuse onto
        verdicts: dict = {}  # a time loop repeats its loop objects: judge
                             # each distinct (a, b) once per compile

        def fusable(a: ParallelLoop, b: ParallelLoop) -> bool:
            key = (id(a), id(b))
            if key not in verdicts:
                verdicts[key] = depend.loops_fusable_exact(
                    a, b, self.nprocs, self.program)
            return verdicts[key]

        for stmt in self.schedule:
            if not isinstance(stmt, ParallelLoop):
                units.append(_Unit(mark=stmt.label) if isinstance(stmt, Mark)
                             else _Unit(seq=stmt))
                tail = None
                continue
            if (self.options.fuse_loops and tail is not None
                    and not stmt.accumulate and fusable(tail, stmt)):
                units[-1].loops.append(stmt)
            else:
                units.append(_Unit(loops=[stmt]))
            for name in stmt.accumulate:
                units.append(_Unit(loops=[self._merge_loop(stmt, name)]))
            tail = None if stmt.accumulate else stmt
        return units

    def chunk(self, loop: ParallelLoop, pid: int) -> Chunk:
        """SPF's partition policy, :func:`loop_chunk`.  Whatever needs
        ``pid``'s share of a loop of this executable — execution, halo
        pushes, the model, lint — asks here."""
        return loop_chunk(loop, pid, self.nprocs)

    def _merge_loop(self, loop: ParallelLoop, name: str) -> ParallelLoop:
        """forces[own rows] = sum over processors of staging[p][own rows]."""
        decl = self.program.decl(name)
        staging = STAGING_PREFIX + name

        def kernel(views, lo, hi):
            views[name][lo:hi] = views[staging][:, lo:hi].sum(axis=0)
            return None

        return ParallelLoop(
            name=f"{loop.name}.merge[{name}]",
            extent=decl.shape[0],
            kernel=kernel,
            reads=[Access(staging, (Full(), Span()))],
            writes=[Access(name, (Span(),))],
            cost_per_iter=getattr(loop, "merge_cost_per_iter", 0.0) or 0.0,
        )

    def _plan_halo_pushes(self):
        """Compile-time producer->consumer halo analysis (§8: push data).

        For each loop that reads an array with a ``Span`` halo, find the
        most recent earlier loop that writes that array chunk-aligned; the
        producers then push their boundary rows to the neighbours that will
        read them, at the end of their chunk.  Returns

        * ``push_plan[unit_idx] -> [(array, lo_off, hi_off, producer)]``
        * ``expect_plan[unit_idx] -> [(lo_off, hi_off, producer)]``

        Sender and receiver both take the boundaries from the *producer's*
        chunks (:meth:`chunk`), so they count the same pushes whatever the
        partition policy.
        """
        def block_writer_of(array, before_idx):
            for j in range(before_idx - 1, -1, -1):
                unit = self.units[j]
                for loop in unit.loops:
                    if loop.schedule != "block":
                        continue
                    for acc in loop.writes:
                        if acc.array != array or acc.irregular:
                            continue
                        lead = acc.region[0] if acc.region else None
                        if isinstance(lead, Span) and lead.lo_off == 0 \
                                and lead.hi_off == 0:
                            return j, loop
            return None, None

        push_plan: dict = {}
        expect_plan: dict = {}
        for i, unit in enumerate(self.units):
            for loop in unit.loops:
                if loop.schedule != "block":
                    continue
                for acc in loop.reads:
                    if acc.irregular or not acc.region:
                        continue
                    lead = acc.region[0]
                    if not (isinstance(lead, Span)
                            and (lead.lo_off < 0 or lead.hi_off > 0)):
                        continue
                    j, producer = block_writer_of(acc.array, i)
                    if producer is None:
                        continue
                    if (producer.extent, producer.start) != (loop.extent,
                                                             loop.start):
                        continue
                    push_plan.setdefault(j, []).append(
                        (acc.array, lead.lo_off, lead.hi_off, producer))
                    expect_plan.setdefault(i, []).append(
                        (lead.lo_off, lead.hi_off, producer))
        return push_plan, expect_plan

    def _expected_pushes(self, unit_idx: int, pid: int) -> int:
        count = 0
        for lo_off, hi_off, producer in self.expect_plan.get(unit_idx, ()):
            if (lo_off < 0 and pid > 0
                    and self.chunk(producer, pid - 1).count):
                count += 1          # the upper neighbour pushes down
            if (hi_off > 0 and pid < self.nprocs - 1
                    and self.chunk(producer, pid + 1).count):
                count += 1          # the lower neighbour pushes up
        return count

    def _do_halo_pushes(self, tmk: Tmk, unit_idx: int):
        for array, lo_off, hi_off, producer in self.push_plan.get(
                unit_idx, ()):
            chunk = self.chunk(producer, tmk.pid)
            if not chunk.count:
                continue
            lo, hi = chunk.bounds
            handle = tmk.world.space[array]
            if lo_off < 0 and tmk.pid < self.nprocs - 1:
                # our bottom rows are the lower neighbour's upper halo
                yield from enhanced.push_regions_gen(
                    tmk.node, [(handle, (slice(hi + lo_off, hi),))],
                    dests=[tmk.pid + 1])
            if hi_off > 0 and tmk.pid > 0:
                yield from enhanced.push_regions_gen(
                    tmk.node, [(handle, (slice(lo, lo + hi_off),))],
                    dests=[tmk.pid - 1])

    def _collect_reductions(self) -> dict:
        """name -> (Reduction, lock id); stable ids across the program."""
        out: dict = {}
        for loop in self.schedule:
            if isinstance(loop, ParallelLoop):
                for red in loop.reductions:
                    if red.name not in out:
                        out[red.name] = (red, len(out))
        return out

    def setup_space(self, space: SharedSpace) -> None:
        """SPF's allocation policy: everything shared, page padded."""
        for decl in self.program.arrays:
            space.alloc(decl.name, decl.shape, decl.dtype)
        if not self.options.tree_reductions:
            for name in self.reductions:
                space.alloc(REDUCTION_PREFIX + name, (1,), np.float64)
        staged = set()
        for loop in self.schedule:
            if isinstance(loop, ParallelLoop):
                for name in loop.accumulate:
                    if name not in staged:
                        staged.add(name)
                        decl = self.program.decl(name)
                        space.alloc(STAGING_PREFIX + name,
                                    (self.nprocs,) + decl.shape, decl.dtype)
        if not self.options.improved_interface:
            alloc_old_interface_control(space)

    # ------------------------------------------------------------------ #
    # execution

    def run_on(self, tmk: Tmk):
        """One processor's program: a generator of block requests whose
        return value is the scalar dict (on the master; ``{}`` elsewhere)."""
        views = {handle.name: tmk.array(handle.name).raw()
                 for handle in tmk.world.space.handles()}
        fj = (ImprovedForkJoin(tmk.node) if self.options.improved_interface
              else OldForkJoin(tmk.node))
        if tmk.pid == 0:
            return (yield from self._run_master(tmk, fj, views))
        yield from self._run_worker(tmk, fj, views)
        return {}

    def _run_master(self, tmk: Tmk, fj, views: dict):
        tmk._spf_scalars = {}
        for idx, unit in enumerate(self.units):
            if unit.mark is not None:
                tmk.env.mark(unit.mark)
                continue
            if unit.seq is not None:
                yield from self._run_seq(tmk, unit.seq, views)
                continue
            yield from self._reset_reductions(tmk, unit)
            yield from self._run_unit_forked(tmk, fj, idx, unit, views)
        yield from fj.shutdown_gen()
        return (yield from self._read_scalars(tmk))

    def _reset_reductions(self, tmk: Tmk, unit: _Unit):
        """Each loop instance's reduction restarts from the identity."""
        if self.options.tree_reductions:
            return
        for loop in unit.loops:
            for red in loop.reductions:
                shared = tmk.array(REDUCTION_PREFIX + red.name)
                yield from shared.write_gen((slice(0, 1),), red.identity)

    def _run_unit_forked(self, tmk: Tmk, fj, idx: int, unit: _Unit,
                         views: dict):
        """The master's side of one parallel dispatch: fork, own chunk,
        join.  :meth:`_run_master` sends every parallel unit through here
        (the speculative backend overrides it with its per-unit policy)."""
        payload = yield from self._build_piggyback(tmk, unit)
        # the loop control variables of Section 2.3: subroutine index
        # plus the loop bounds (workers recompute their chunk from them)
        head = unit.loops[0]
        yield from fj.fork_gen(idx, (float(head.start), float(head.extent)),
                               payload=payload)
        yield from self._run_unit_chunks(tmk, idx, views)
        yield from fj.join_gen()

    def _run_worker(self, tmk: Tmk, fj, views: dict):
        while True:
            work = yield from fj.wait_for_work_gen()
            if work is None:
                return
            yield from self._run_unit_chunks(tmk, int(work[0]), views)
            yield from fj.work_done_gen()

    def _run_unit_chunks(self, tmk: Tmk, idx: int, views: dict):
        """What every processor does between fork and join."""
        expected = self._expected_pushes(idx, tmk.pid)
        if expected:
            yield from enhanced.expect_pushes_gen(tmk.node, expected)
        for loop in self.units[idx].loops:
            yield from self._run_chunk(tmk, loop, views)
        yield from self._do_halo_pushes(tmk, idx)

    def _build_piggyback(self, tmk: Tmk, unit: _Unit):
        hook = self.options.piggyback
        if hook is None or not unit.loops:
            return None
        regions = hook(unit.loops[0])
        if not regions:
            return None
        pairs = [(tmk.world.space[name], region) for name, region in regions]
        # sync+data merging sends the *current page images* (the master
        # just wrote or faulted them), exactly the broadcast the paper
        # added to TreadMarks for MGS's ith vector
        return (yield from enhanced.BcastPayload.build_gen(tmk.node, pairs))

    # ---- sequential code (master only) ----------------------------------

    def _run_seq(self, tmk: Tmk, stmt: SeqBlock, views: dict):
        for write, accesses in ((False, stmt.reads), (True, stmt.writes)):
            for acc in accesses:
                miss = self._ensure(tmk, acc, SEQ, views, write=write,
                                    tag=stmt.name)
                if miss is not None:
                    yield from miss
        stmt.kernel(views)
        cost = stmt.cost_for(self.program.params)
        if cost:
            yield from tmk.compute_gen(cost)

    # ---- parallel chunks (all processors) --------------------------------

    def _run_chunk(self, tmk: Tmk, loop: ParallelLoop, views: dict,
                   chunk: Optional[Chunk] = None, stage=None):
        """Run ``chunk`` of ``loop`` (default: this processor's share);
        ``stage`` publishes accumulation buffers (default: this
        processor's staging row)."""
        if chunk is None:
            chunk = self.chunk(loop, tmk.pid)
        if loop.accumulate:
            # kernel contributions go to a private buffer; the buffer is
            # then written into this processor's row of the shared staging
            # array (the merge loop unit sums the rows afterwards)
            views = dict(views)
            privates = {}
            for name in loop.accumulate:
                decl = self.program.decl(name)
                privates[name] = views[name] = np.zeros(decl.shape,
                                                        dtype=decl.dtype)
        if chunk.count:
            for write, accesses in ((False, loop.reads), (True, loop.writes)):
                for acc in _ensure_order(accesses, loop.accumulate):
                    miss = self._ensure(tmk, acc, chunk, views, write=write,
                                        tag=loop.name)
                    if miss is not None:
                        yield from miss
        partials, cost = chunk.run(loop, views)
        if cost:
            yield from tmk.compute_gen(cost)
        if loop.accumulate:
            yield from (stage or self._stage_contributions)(tmk, loop,
                                                            privates)
        if loop.reductions:
            yield from self._fold_reductions(tmk, loop, partials)

    def _stage_contributions(self, tmk: Tmk, loop: ParallelLoop,
                             privates: dict):
        """Write this processor's private buffer into staging[pid].

        Only rows actually touched are written (the source writes
        ``buffer(i)`` for each interacting index ``i``); the previously
        touched rows are rewritten too, so stale contributions from an
        earlier instance can never survive in the shared row.
        """
        for name, buf in privates.items():
            handle = tmk.world.space[STAGING_PREFIX + name]
            flat = buf.reshape(buf.shape[0], -1)
            touched = np.flatnonzero(np.any(flat != 0, axis=1))
            prev_key = (loop.name, name)
            prev = self._prev_touched(tmk).get(prev_key)
            if prev is not None and (len(prev) != len(touched)
                                     or not np.array_equal(prev, touched)):
                touched = np.union1d(prev, touched)
            self._prev_touched(tmk)[prev_key] = touched
            if touched.size == 0:
                continue
            row_elems = math.prod(buf.shape[1:])
            base = tmk.pid * buf.shape[0]
            miss = tmk.node.ensure_write_elements_steps(
                handle, (base + touched) * row_elems, elem_span=row_elems,
                source=f"{loop.name}:{STAGING_PREFIX}{name}")
            if miss is not None:
                yield from miss
            staging_view = tmk.array(STAGING_PREFIX + name).raw()
            staging_view[tmk.pid, touched] = buf[touched]

    def _prev_touched(self, tmk: Tmk) -> dict:
        if not hasattr(tmk, "_spf_prev_touched"):
            tmk._spf_prev_touched = {}
        return tmk._spf_prev_touched

    def _ensure(self, tmk: Tmk, acc, chunk: Chunk, views: dict,
                write: bool, tag: str = "?"):
        """Make ``chunk``'s footprint of ``acc`` locally current: ``None``
        when it already is (the fast path — a plain call), else the
        generator of block requests that faults the rest in."""
        handle = tmk.world.space[acc.array]
        node = tmk.node
        source = f"{tag}:{acc.array}"
        fp = self._footprint(acc, chunk, handle.shape, views)
        if isinstance(fp, Elements):
            ensure = (node.ensure_write_elements_steps if write
                      else node.ensure_read_elements_steps)
            return ensure(handle, fp.flat, elem_span=fp.span, source=source)
        if write:
            return node.ensure_write_steps(handle, fp, source=source)
        if self.options.aggregate:
            return enhanced.validate_steps(node, handle, fp, source=source)
        return node.ensure_read_steps(handle, fp, source=source)

    def _footprint(self, acc, chunk: Chunk, shape: tuple, views: dict):
        """``chunk.footprint(acc, ...)``, a region resolved once per
        executable: an affine access at given chunk bounds always names
        the same region.  (Run-time footprints are :class:`Elements` and
        are never kept.)  The memo is keyed by the access's identity and
        holds the access, so the key cannot be reused while it is kept."""
        key = (id(acc), chunk)
        hit = self._regions.get(key)
        if hit is not None:
            return hit[1]
        fp = chunk.footprint(acc, shape, views)
        if isinstance(fp, Elements):
            return fp
        if len(self._regions) >= _FOOTPRINT_MEMO_LIMIT:
            self._regions.clear()
        self._regions[key] = (acc, fp)
        return fp

    def _fold_reductions(self, tmk: Tmk, loop: ParallelLoop, partials):
        if self.options.tree_reductions:
            from repro.tmk.reduction import tmk_reduce_gen
            for red in loop.reductions:
                val = (partials or {}).get(red.name, red.identity)
                final = yield from tmk_reduce_gen(tmk.node, val, red.combine)
                if tmk.pid == 0:
                    tmk._spf_scalars[red.name] = float(final)
            return
        for red in loop.reductions:
            val = (partials or {}).get(red.name, red.identity)
            _red, lock_id = self.reductions[red.name]
            shared = tmk.array(REDUCTION_PREFIX + red.name)
            source = f"{loop.name}:{REDUCTION_PREFIX}{red.name}"
            steps = tmk.lock_acquire_steps(lock_id)
            if steps is not None:
                yield from steps
            cell = yield from shared.read_gen((slice(0, 1),), source=source)
            yield from shared.write_gen((slice(0, 1),),
                                        red.combine(float(cell[0]), val),
                                        source=source)
            steps = tmk.lock_release_steps(lock_id)
            if steps is not None:
                yield from steps

    def _read_scalars(self, tmk: Tmk):
        if self.options.tree_reductions:
            return dict(tmk._spf_scalars)
        out = {}
        for name in self.reductions:
            shared = tmk.array(REDUCTION_PREFIX + name)
            cell = yield from shared.read_gen((slice(0, 1),))
            out[name] = float(cell[0])
        return out


def compile_spf(program: Program, nprocs: int = 8,
                options: Optional[SpfOptions] = None) -> SpfExecutable:
    return SpfExecutable(program, options or SpfOptions(), nprocs)


def run_spf(program: Program, nprocs: int = 8,
            options: Optional[SpfOptions] = None,
            model: Optional[MachineModel] = None,
            schedule_seed: Optional[int] = None,
            racecheck: bool = False,
            faults: Optional[FaultPlan] = None) -> RunResult:
    """Compile and run; scalars land in ``result.scalars``."""
    exe = compile_spf(program, nprocs, options)

    def setup(space: SharedSpace) -> None:
        exe.setup_space(space)

    result = tmk_run(nprocs, exe.run_on, setup, model=model,
                     schedule_seed=schedule_seed, racecheck=racecheck,
                     faults=faults)
    result.scalars = result.results[0]
    return result

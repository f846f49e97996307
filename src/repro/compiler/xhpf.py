"""The XHPF analog: SPMD message-passing code generation.

Reproduces the Forge XHPF behaviour of Section 2.4:

* data distribution comes from HPF-style directives on the arrays
  (:attr:`~repro.compiler.ir.ArrayDecl.distribute`); loop iterations are
  assigned by the owner-computes rule via each loop's ``align``;
* for *affine* access patterns the runtime generates exact point-to-point
  messages: before each parallel loop, every processor receives precisely
  the non-owned part of its chunk footprint from the owners (the stencil
  boundary exchange falls out of this);
* for *irregular* patterns ("the communication pattern is unknown at
  compile time") the compiler "inserts instructions to broadcast all the
  data in a processor's partition at the end of the parallel loop,
  regardless of whether the data will actually be used" — every processor
  sends its whole owned partition of every written distributed array to
  every other processor, and accumulation buffers (NBF's force array) are
  broadcast in full and summed;
* sequential code is executed redundantly by every processor (SPMD), with
  the owners first broadcasting any distributed data it reads — this is
  why all processors "participate in normalization of the ith vector" in
  MGS and why XHPF trails hand-coded message passing there;
* scalar reductions use reduce+broadcast collectives;
* array sections move through the runtime's bounded transfer buffer, so
  large transfers are segmented into ~4 KB packets
  (:attr:`~repro.sim.machine.MachineModel.mp_packet_bytes`), matching the
  data/message ratios of the paper's Table 3.

Who sends what to whom is decided once, by the *plan* methods of
:class:`XhpfExecutable` (``broadcast_parts``, ``exchange_edges``,
``stale_after``/``rebroadcasts``, ``inspect``/``schedule_requests``).  Two
evaluators read the plan: the emitted program below, which moves the data,
and the analytic model (:mod:`repro.compiler.model`), which only counts and
clocks it.

The emitted program (:meth:`XhpfExecutable.run_on` and everything it
reaches) is a generator of engine block requests, so each simulated
processor runs it as a generator process: no OS thread, kernels execute on
the caller's.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.compiler.inspector import (CommSchedule, ScheduleCache,
                                      footprint_fingerprint, inspect_reads)
from repro.compiler.ir import (Access, ArrayDecl, Mark, ParallelLoop, Point,
                               Program, SeqBlock)
from repro.compiler.partition import (Chunk, block_owner, block_range,
                                      loop_chunk)
from repro.msg.collectives import allreduce_gen, bcast_gen
from repro.msg.endpoint import Comm
from repro.sim.cluster import Cluster, ProcEnv, RunResult
from repro.sim.faults import FaultPlan
from repro.sim.machine import MachineModel

__all__ = ["XhpfExecutable", "compile_xhpf", "run_xhpf"]

TAG_EXCHANGE = 2000
TAG_PARTITION = 2001

INSPECT_COST_PER_ELEMENT = 200e-9
"""Charged when the inspector analyzes a footprint (index translation and
schedule construction were a real cost in CHAOS)."""


def _row_span(rows) -> tuple:
    """[lo, hi) of a resolved leading index (one row or a slice)."""
    return (rows, rows + 1) if isinstance(rows, int) \
        else (rows.start, rows.stop)


class XhpfExecutable:
    """A compiled SPMD message-passing program.

    ``inspector_executor`` handles irregular loops with CHAOS-style
    inspector-executor schedules (see :mod:`repro.compiler.inspector`)
    instead of the paper's broadcast-everything fallback: the 'quite
    complex' compiler alternative the paper positions the DSM against (the
    ``xhpf_ie`` variant)."""

    def __init__(self, program: Program, nprocs: int,
                 inspector_executor: bool = False):
        program.validate()
        self.program = program
        self.nprocs = nprocs
        self.inspector_executor = inspector_executor
        self.schedule = list(program.flat_statements())
        self.decls = {a.name: a for a in program.arrays}

    # ------------------------------------------------------------------ #
    # ownership helpers

    def owned_rows(self, decl: ArrayDecl, pid: int) -> tuple:
        """[lo, hi) of the distributed dimension owned by ``pid`` (BLOCK)."""
        if decl.distribute is None:
            raise ValueError(f"{decl.name} is replicated")
        if decl.distribute != 0:
            raise NotImplementedError("only dim-0 distribution is "
                                      "generated by the applications")
        if decl.dist_kind != "block":
            raise ValueError(f"{decl.name} is CYCLIC-distributed")
        return block_range(decl.shape[0], self.nprocs, pid)

    def row_owner(self, decl: ArrayDecl, row: int) -> int:
        if decl.dist_kind == "cyclic":
            return row % self.nprocs
        return block_owner(decl.shape[0], self.nprocs, row)

    @staticmethod
    def row_nbytes(decl: ArrayDecl, rect: Optional[tuple] = None) -> int:
        """Bytes of one leading-dimension row of ``decl``: the whole row,
        or the part a resolved region ``rect`` selects of it."""
        if rect is None:
            return math.prod(decl.shape[1:]) * np.dtype(decl.dtype).itemsize
        elems = np.dtype(decl.dtype).itemsize
        for r, extent in zip(rect[1:], decl.shape[1:]):
            if not isinstance(r, int):
                elems *= len(range(*r.indices(extent)))
        return elems

    def chunk(self, loop: ParallelLoop, pid: int) -> Chunk:
        """XHPF's partition policy: owner-computes — a block loop aligned
        with a distributed array runs the iterations whose rows ``pid``
        owns; anything else falls back to ``loop.schedule`` by count."""
        if loop.schedule != "cyclic" and loop.align is not None:
            arr, dim = loop.align
            decl = self.decls[arr]
            if decl.distribute is not None and dim == decl.distribute:
                olo, ohi = self.owned_rows(decl, pid)
                lo = max(olo, loop.start)
                return Chunk(lo, max(lo, min(ohi, loop.extent)))
        return loop_chunk(loop, pid, self.nprocs)

    # ------------------------------------------------------------------ #
    # the communication plan: who sends what to whom.  ``nbytes`` is the
    # plan's arithmetic size of a part; the program sizes what it actually
    # sends, so the model's totals matching the simulator's stay a check.

    def _split_rows(self, decl: ArrayDecl, lo: int, hi: int,
                    skip: Optional[int] = None) -> list:
        """``(owner, rows, count)``: rows [lo, hi) of ``decl`` by owner,
        ascending, leaving out ``skip``'s own.  BLOCK scans only the owners
        between those of the end rows; a CYCLIC owner gets its residue
        class as an index array."""
        n = self.nprocs
        out = []
        if hi <= lo:
            return out
        if decl.dist_kind == "cyclic":
            for owner in (range(n) if hi - lo >= n
                          else sorted(row % n for row in range(lo, hi))):
                if owner != skip:
                    rows = np.arange(lo + (owner - lo) % n, hi, n,
                                     dtype=np.int64)
                    out.append((owner, rows, len(rows)))
            return out
        extent = decl.shape[0]
        for owner in range(block_owner(extent, n, max(0, lo)),
                           block_owner(extent, n, min(extent, hi) - 1) + 1):
            if owner == skip:
                continue
            olo, ohi = self.owned_rows(decl, owner)
            a, b = max(lo, olo), min(hi, ohi)
            if a < b:
                out.append((owner, slice(a, b), b - a))
        return out

    def broadcast_parts(self, stmt) -> list:
        """``(owner, array, region, nbytes)``: the owners' parts of
        distributed data, each broadcast to every replica before ``stmt``
        runs — every region a sequential block reads, and the fixed rows
        (``Point``) a cyclic loop's chunks read."""
        reads = stmt.reads if isinstance(stmt, SeqBlock) else [
            acc for acc in stmt.reads
            if acc.region and isinstance(acc.region[0], Point)]
        parts = []
        for acc in reads:
            decl = self.decls[acc.array]
            if decl.distribute is None or acc.irregular:
                continue
            region = acc.resolve(0, 0, decl.shape)
            lo, hi = _row_span(region[0])
            if decl.dist_kind == "cyclic":
                # the applications only read single rows of CYCLIC arrays
                # in sequential code (MGS's ith vector)
                if hi != lo + 1:
                    raise NotImplementedError("multi-row sequential reads "
                                              "of CYCLIC arrays")
                split = [(self.row_owner(decl, lo), slice(lo, hi), 1)]
            else:
                split = self._split_rows(decl, lo, hi)
            row_nbytes = self.row_nbytes(decl, region)
            parts.extend((owner, acc.array, (rows,) + region[1:],
                          count * row_nbytes)
                         for owner, rows, count in split)
        return parts

    def exchange_edges(self, loop: ParallelLoop,
                       chunks: Optional[list] = None) -> list:
        """``(owner, receiver, array, region, nbytes)``: the sends that make
        every chunk's read footprint of block ``loop`` current, by access,
        then receiver, then ascending owner (``chunks``: every processor's
        :meth:`chunk` of ``loop``, when the caller has them)."""
        if chunks is None:
            chunks = [self.chunk(loop, p) for p in range(self.nprocs)]
        edges = []
        for acc in loop.reads:
            decl = self.decls[acc.array]
            if decl.distribute is None:
                continue
            for receiver, chunk in enumerate(chunks):
                if not chunk.count:
                    continue
                rect = acc.resolve(*chunk.bounds, decl.shape)
                rest, row_nbytes = rect[1:], self.row_nbytes(decl, rect)
                lo, hi = _row_span(rect[0])
                for owner, rows, count in self._split_rows(decl, lo, hi,
                                                           receiver):
                    edges.append((owner, receiver, acc.array, (rows,) + rest,
                                  count * row_nbytes))
        return edges

    def stale_after(self, loop: ParallelLoop) -> list:
        """Distributed arrays whose replicas ``loop`` leaves out of date:
        the ones owner-computes writes and, on the inspector path, the
        accumulation buffers (only their owners hold complete sums)."""
        names = [acc.array for acc in loop.writes
                 if self.decls[acc.array].distribute is not None]
        if loop.irregular and self.inspector_executor:
            names = list(loop.accumulate) + names
        return names

    def rebroadcasts(self, loop: ParallelLoop, stale: set) -> tuple:
        """Broadcast-everything around irregular ``loop``: ``(before,
        after)``, the arrays every processor broadcasts its whole owned
        partition of — stale inputs before the kernel, written arrays after
        it (accumulation buffers are summed instead)."""
        before = [name for name in dict.fromkeys(acc.array
                                                 for acc in loop.reads)
                  if name in stale]
        after = [acc.array for acc in loop.writes
                 if self.decls[acc.array].distribute is not None
                 and acc.array not in loop.accumulate]
        return before, after

    def gathered(self, loop: ParallelLoop) -> Access:
        """The one irregular read stream an inspector schedules."""
        reads = [acc for acc in loop.reads
                 if acc.irregular and acc.array not in loop.accumulate]
        if len(reads) != 1:
            raise NotImplementedError("inspector-executor expects one "
                                      "irregular read stream per loop")
        return reads[0]

    def inspect(self, loop: ParallelLoop, pid: int, views: dict,
                cache: ScheduleCache) -> tuple:
        """``pid``'s ``(schedule, charge)`` for irregular ``loop``.

        A footprint whose fingerprint matches the schedule ``cache`` holds
        for the loop reuses it, with charge ``None``.  Otherwise the
        inspector builds a fresh schedule (the foreign rows ``pid``
        gathers, by owner, and for accumulation loops returns), stores it
        in ``cache`` and charges for the analysis.  Its transposes
        (``send_rows``/``accept_rows``) come from exchanging
        :meth:`schedule_requests`.
        """
        acc = self.gathered(loop)
        decl = self.decls[acc.array]
        chunk = self.chunk(loop, pid)
        flat = chunk.footprint(acc, decl.shape, views).flat if chunk.count \
            else np.empty(0, np.int64)
        fingerprint = footprint_fingerprint(flat)
        sched = cache.lookup(loop.name, fingerprint)
        if sched is not None:
            return sched, None
        recv_rows = inspect_reads(
            flat, math.prod(decl.shape[1:]), chunk.bounds,
            [self.owned_rows(decl, p) for p in range(self.nprocs)])
        # accumulation buffers are row-aligned with the gathered array
        # (molecule i's force row pairs with its coordinate row), so the
        # contribution rows are exactly the foreign touched rows
        sched = CommSchedule(fingerprint=fingerprint, recv_rows=recv_rows,
                             return_rows=(dict(recv_rows) if loop.accumulate
                                          else {}))
        cache.store(loop.name, sched)
        return sched, INSPECT_COST_PER_ELEMENT * max(len(flat), 1)

    def schedule_requests(self, sched: CommSchedule, pid: int) -> list:
        """``(peer, want, give)``: what ``pid``'s fresh schedule tells every
        other processor — the rows it will gather from and return to it."""
        empty = np.empty(0, np.int64)
        return [(peer, sched.recv_rows.get(peer, empty),
                 sched.return_rows.get(peer, empty))
                for peer in range(self.nprocs) if peer != pid]

    # ------------------------------------------------------------------ #
    # execution

    def run_on(self, env: ProcEnv):
        """One processor's program: a generator of block requests whose
        return value is the scalar dict."""
        comm = Comm(env, category="data",
                    packet_bytes=env.model.mp_packet_bytes)
        views = {a.name: np.zeros(a.shape, dtype=a.dtype)
                 for a in self.program.arrays}
        scalars: dict = {}
        # distributed arrays whose replicated copies are out of date
        # (initially none: all zeros)
        stale: set = set()
        cache = ScheduleCache()
        for stmt in self.schedule:
            if isinstance(stmt, Mark):
                env.mark(stmt.label)
            elif isinstance(stmt, SeqBlock):
                yield from self._run_seq(env, comm, stmt, views)
            else:
                yield from self._run_loop(env, comm, stmt, views, scalars,
                                          stale, cache)
        return scalars

    # ---- sequential code: replicated execution ---------------------------

    def _run_seq(self, env: ProcEnv, comm: Comm, stmt: SeqBlock,
                 views: dict):
        yield from self._broadcasts(env, comm, stmt, views)
        stmt.kernel(views)
        cost = stmt.cost_for(self.program.params)
        if cost:
            # every processor: redundant SPMD execution
            yield from env.compute_gen(cost)

    def _broadcasts(self, env: ProcEnv, comm: Comm, stmt, views: dict):
        """Each owner's part of what ``stmt`` reads reaches every replica."""
        for owner, array, region, _nbytes in self.broadcast_parts(stmt):
            if env.pid == owner:
                yield from bcast_gen(comm, views[array][region].copy(),
                                     root=owner)
            else:
                views[array][region] = yield from bcast_gen(comm, None,
                                                            root=owner)

    # ---- parallel loops ----------------------------------------------------

    def _run_loop(self, env: ProcEnv, comm: Comm, loop: ParallelLoop,
                  views: dict, scalars: dict, stale: set,
                  cache: ScheduleCache):
        if loop.irregular and not self.inspector_executor:
            yield from self._run_irregular_loop(env, comm, loop, views,
                                                scalars, stale)
            return
        stale.update(self.stale_after(loop))
        if loop.irregular:
            yield from self._run_irregular_inspector(env, comm, loop, views,
                                                     scalars, cache)
            return
        if loop.schedule == "cyclic":
            yield from self._broadcasts(env, comm, loop, views)
        else:
            yield from self._exchange_block(env, comm, loop, views)
        partials = yield from self._run_chunk(env, loop, views)
        yield from self._fold_reductions(env, comm, loop, partials, scalars)

    def _run_chunk(self, env: ProcEnv, loop: ParallelLoop, views: dict):
        """This processor's kernel call and compute charge -> partials."""
        partials, cost = self.chunk(loop, env.pid).run(loop, views)
        if cost:
            yield from env.compute_gen(cost)
        return partials

    def _exchange_block(self, env: ProcEnv, comm: Comm,
                        loop: ParallelLoop, views: dict):
        """This processor's edges of the exchange: sends first (buffered),
        then receives — deadlock-free."""
        me = env.pid
        edges = self.exchange_edges(loop)
        for owner, receiver, array, region, _nbytes in edges:
            if owner == me:
                yield from comm.send_gen(receiver, views[array][region].copy(),
                                         tag=TAG_EXCHANGE)
        for owner, receiver, array, region, _nbytes in edges:
            if receiver == me:
                views[array][region] = yield from comm.recv_gen(
                    src=owner, tag=TAG_EXCHANGE)

    # ---- irregular loops, inspector-executor variant ---------------------

    def _run_irregular_inspector(self, env: ProcEnv, comm: Comm,
                                 loop: ParallelLoop, views: dict,
                                 scalars: dict, cache: ScheduleCache):
        """CHAOS-style: gather exactly the referenced rows, return exactly
        the produced contributions — no broadcasts."""
        me = env.pid
        sched, charge = self.inspect(loop, me, views, cache)
        if charge is not None:
            # ---- inspector: exchange the fresh schedule
            yield from env.compute_gen(charge)
            for peer, want, give in self.schedule_requests(sched, me):
                yield from comm.send_gen(peer, (want, give),
                                         tag=TAG_EXCHANGE, category="sync")
            for peer in range(self.nprocs):
                if peer == me:
                    continue
                want, give = yield from comm.recv_gen(src=peer,
                                                      tag=TAG_EXCHANGE)
                if len(want):
                    sched.send_rows[peer] = np.asarray(want)
                if len(give):
                    sched.accept_rows[peer] = np.asarray(give)

        # ---- executor: scheduled gather of referenced rows
        gathered = views[self.gathered(loop).array]
        for peer in sorted(sched.send_rows):
            rows = sched.send_rows[peer]
            yield from comm.send_gen(peer, gathered[rows].copy(),
                                     tag=TAG_PARTITION)
        for peer in sorted(sched.recv_rows):
            rows = sched.recv_rows[peer]
            gathered[rows] = yield from comm.recv_gen(src=peer,
                                                      tag=TAG_PARTITION)

        for name in loop.accumulate:
            views[name][...] = 0
        partials = yield from self._run_chunk(env, loop, views)

        # ---- scheduled return of accumulation contributions
        for name in loop.accumulate:
            buf = views[name]
            for peer in sorted(sched.return_rows):
                rows = sched.return_rows[peer]
                yield from comm.send_gen(peer, buf[rows].copy(),
                                         tag=TAG_PARTITION)
            for peer in sorted(sched.accept_rows):
                rows = sched.accept_rows[peer]
                buf[rows] += yield from comm.recv_gen(src=peer,
                                                      tag=TAG_PARTITION)
        yield from self._fold_reductions(env, comm, loop, partials, scalars)

    def _run_irregular_loop(self, env: ProcEnv, comm: Comm,
                            loop: ParallelLoop, views: dict,
                            scalars: dict, stale: set):
        """Owner-computes on replicated data + broadcast-everything.

        The compiler "does not know what data will be accessed", so it keeps
        every distributed array the loop touches fully replicated: any array
        whose replicas went stale (a block loop wrote it) is re-broadcast
        before the kernel ("broadcast ... the coordinates of all its
        molecules"), and every array the loop writes is broadcast after it
        ("broadcast all the data in a processor's partition at the end of
        the parallel loop, regardless of whether the data will actually be
        used").
        """
        me = env.pid
        before, after = self.rebroadcasts(loop, stale)
        for name in before:
            yield from self._broadcast_partitions(env, comm, name, views)
        # accumulation buffers: recomputed from zero each instance, summed
        # across processors (force buffers)
        for name in loop.accumulate:
            views[name][...] = 0
        partials = yield from self._run_chunk(env, loop, views)
        # broadcast local accumulation buffers; everyone sums all of them
        for name in loop.accumulate:
            mine = views[name].copy()
            total = mine
            for peer in range(self.nprocs):
                if peer == me:
                    continue
                yield from comm.send_gen(peer, mine, tag=TAG_PARTITION)
            for peer in range(self.nprocs):
                if peer == me:
                    continue
                total = total + (yield from comm.recv_gen(
                    src=peer, tag=TAG_PARTITION))
            views[name][...] = total
        for name in after:
            yield from self._broadcast_partitions(env, comm, name, views)
        stale.difference_update(before + list(loop.accumulate) + after)
        yield from self._fold_reductions(env, comm, loop, partials, scalars)

    def _broadcast_partitions(self, env: ProcEnv, comm: Comm, name: str,
                              views: dict):
        """Every processor sends its owned partition to every other."""
        me = env.pid
        decl = self.decls[name]
        olo, ohi = self.owned_rows(decl, me)
        mine = views[name][olo:ohi].copy()
        for peer in range(self.nprocs):
            if peer == me:
                continue
            yield from comm.send_gen(peer, mine, tag=TAG_PARTITION)
        for peer in range(self.nprocs):
            if peer == me:
                continue
            plo, phi = self.owned_rows(decl, peer)
            views[name][plo:phi] = yield from comm.recv_gen(
                src=peer, tag=TAG_PARTITION)

    def _fold_reductions(self, env: ProcEnv, comm: Comm, loop: ParallelLoop,
                         partials, scalars: dict):
        for red in loop.reductions:
            val = (partials or {}).get(red.name, red.identity)
            scalars[red.name] = yield from allreduce_gen(comm, val,
                                                         red.combine)


def compile_xhpf(program: Program, nprocs: int = 8,
                 inspector_executor: bool = False) -> XhpfExecutable:
    return XhpfExecutable(program, nprocs, inspector_executor)


def run_xhpf(program: Program, nprocs: int = 8,
             inspector_executor: bool = False,
             model: Optional[MachineModel] = None,
             schedule_seed: Optional[int] = None,
             faults: Optional[FaultPlan] = None) -> RunResult:
    """Compile and run; rank-0 scalars land in ``result.scalars``."""
    exe = compile_xhpf(program, nprocs, inspector_executor)
    cluster = Cluster(nprocs=nprocs, model=model,
                      schedule_seed=schedule_seed, faults=faults)
    result = cluster.run(exe.run_on)
    result.scalars = result.results[0]
    result.fault_stats = cluster.net.fault_stats
    return result

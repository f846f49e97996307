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

The emitted program (:meth:`XhpfExecutable.run_on` and everything it
reaches) is a generator of engine block requests, so each simulated
processor runs it as a generator process: no OS thread, kernels execute on
the caller's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.compiler.ir import (Access, ArrayDecl, Mark, ParallelLoop, Point,
                               Program, SeqBlock)
from repro.compiler.partition import (Chunk, block_owner, block_range,
                                      loop_chunk)
from repro.msg.collectives import allreduce_gen, bcast_gen
from repro.msg.endpoint import Comm
from repro.sim.cluster import Cluster, ProcEnv, RunResult
from repro.sim.faults import FaultPlan
from repro.sim.machine import MachineModel

__all__ = ["XhpfOptions", "XhpfExecutable", "compile_xhpf", "run_xhpf"]

TAG_EXCHANGE = 2000
TAG_PARTITION = 2001


@dataclass
class XhpfOptions:
    """Code-generation switches."""

    segment_transfers: bool = True
    """Move array sections through the runtime's bounded buffer (4 KB
    packets).  Disable to model an idealized runtime."""

    inspector_executor: bool = False
    """Handle irregular loops with CHAOS-style inspector-executor schedules
    (see :mod:`repro.compiler.inspector`) instead of the paper's
    broadcast-everything fallback.  This is the 'quite complex' compiler
    alternative the paper positions the DSM against."""

    inspect_cost_per_element: float = 200e-9
    """Charged when the inspector analyzes a footprint (index translation
    and schedule construction were a real cost in CHAOS)."""


class XhpfExecutable:
    """A compiled SPMD message-passing program."""

    def __init__(self, program: Program, options: XhpfOptions, nprocs: int):
        program.validate()
        self.program = program
        self.options = options
        self.nprocs = nprocs
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
    # execution

    def run_on(self, env: ProcEnv):
        """One processor's program: a generator of block requests whose
        return value is the scalar dict."""
        model = env.model
        packet = model.mp_packet_bytes if self.options.segment_transfers else None
        comm = Comm(env, category="data", packet_bytes=packet)
        views = {a.name: np.zeros(a.shape, dtype=a.dtype)
                 for a in self.program.arrays}
        scalars: dict = {}
        # replicated-copy validity per distributed array: True while every
        # processor's full copy is current (initially yes: all zeros).
        # A block loop's owner-computes writes invalidate it; the
        # broadcast-everything epilogue of an irregular loop restores it.
        state = {a.name: True for a in self.program.arrays}
        if self.options.inspector_executor:
            from repro.compiler.inspector import ScheduleCache
            state["__schedules__"] = ScheduleCache()
        for stmt in self.schedule:
            if isinstance(stmt, Mark):
                env.mark(stmt.label)
            elif isinstance(stmt, SeqBlock):
                yield from self._run_seq(env, comm, stmt, views)
            else:
                yield from self._run_loop(env, comm, stmt, views, scalars,
                                          state)
        return scalars

    # ---- sequential code: replicated execution ---------------------------

    def _run_seq(self, env: ProcEnv, comm: Comm, stmt: SeqBlock,
                 views: dict):
        # owners broadcast any distributed data the block reads
        for acc in stmt.reads:
            yield from self._broadcast_region(env, comm, acc, views)
        stmt.kernel(views)
        cost = stmt.cost_for(self.program.params)
        if cost:
            # every processor: redundant SPMD execution
            yield from env.compute_gen(cost)

    def _broadcast_region(self, env: ProcEnv, comm: Comm, acc: Access,
                          views: dict):
        decl = self.decls[acc.array]
        if decl.distribute is None or acc.irregular:
            return
        region = acc.resolve(0, 0, decl.shape)
        rows = region[0]
        row_lo, row_hi = (rows, rows + 1) if isinstance(rows, int) \
            else (rows.start, rows.stop)
        if decl.dist_kind == "cyclic":
            # the applications only read single rows of CYCLIC arrays in
            # sequential code (MGS's ith vector)
            if row_hi != row_lo + 1:
                raise NotImplementedError("multi-row sequential reads of "
                                          "CYCLIC arrays")
            owner = self.row_owner(decl, row_lo)
            part_region = (slice(row_lo, row_hi),) + tuple(region[1:])
            yield from self._bcast_part(env, comm, views[acc.array],
                                        part_region, owner)
            return
        for owner in range(self.nprocs):
            olo, ohi = self.owned_rows(decl, owner)
            lo, hi = max(row_lo, olo), min(row_hi, ohi)
            if hi <= lo:
                continue
            part_region = (slice(lo, hi),) + tuple(region[1:])
            yield from self._bcast_part(env, comm, views[acc.array],
                                        part_region, owner)

    @staticmethod
    def _bcast_part(env: ProcEnv, comm: Comm, view, part_region,
                    owner: int):
        """``owner``'s ``part_region`` of ``view`` reaches every replica."""
        if env.pid == owner:
            yield from bcast_gen(comm, view[part_region].copy(), root=owner)
        else:
            view[part_region] = yield from bcast_gen(comm, None, root=owner)

    # ---- parallel loops ----------------------------------------------------

    def _run_loop(self, env: ProcEnv, comm: Comm, loop: ParallelLoop,
                  views: dict, scalars: dict, state: dict):
        if loop.irregular:
            run = (self._run_irregular_inspector
                   if self.options.inspector_executor
                   else self._run_irregular_loop)
            yield from run(env, comm, loop, views, scalars, state)
            return
        for acc in loop.writes:
            decl = self.decls[acc.array]
            if decl.distribute is not None:
                state[acc.array] = False   # replicas go stale
        exchange = (self._exchange_cyclic if loop.schedule == "cyclic"
                    else self._exchange_block)
        yield from exchange(env, comm, loop, views)
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
        """Pairwise exchange so each chunk's read footprint is current."""
        me = env.pid
        chunks = [self.chunk(loop, p) for p in range(self.nprocs)]
        plan: list = []   # (peer, send_region | None, recv_region | None, array)
        for acc in loop.reads:
            decl = self.decls[acc.array]
            if decl.distribute is None:
                continue
            for receiver, chunk in enumerate(chunks):
                if not chunk.count:
                    continue
                rect = acc.resolve(*chunk.bounds, decl.shape)
                rows = rect[0]
                need_lo, need_hi = (rows, rows + 1) if isinstance(rows, int) \
                    else (rows.start, rows.stop)
                for owner in range(self.nprocs):
                    if owner == receiver:
                        continue
                    if decl.dist_kind == "cyclic":
                        idx = np.arange(need_lo, need_hi, dtype=np.int64)
                        idx = idx[idx % self.nprocs == owner]
                        if idx.size == 0:
                            continue
                        part = (idx,) + tuple(rect[1:])
                    else:
                        olo, ohi = self.owned_rows(decl, owner)
                        lo, hi = max(need_lo, olo), min(need_hi, ohi)
                        if hi <= lo:
                            continue
                        part = (slice(lo, hi),) + tuple(rect[1:])
                    if owner == me:
                        plan.append(("send", receiver, acc.array, part))
                    elif receiver == me:
                        plan.append(("recv", owner, acc.array, part))
        # sends first (buffered), then receives — deadlock-free
        for op, peer, array, part in plan:
            if op == "send":
                yield from comm.send_gen(peer, views[array][part].copy(),
                                         tag=TAG_EXCHANGE)
        for op, peer, array, part in plan:
            if op == "recv":
                views[array][part] = yield from comm.recv_gen(
                    src=peer, tag=TAG_EXCHANGE)

    def _exchange_cyclic(self, env: ProcEnv, comm: Comm, loop: ParallelLoop,
                         views: dict):
        """Cyclic chunks read only fixed rows (Point) in the applications;
        those travel through the sequential-broadcast path instead."""
        for acc in loop.reads:
            decl = self.decls[acc.array]
            if decl.distribute is None:
                continue
            lead = acc.region[0] if acc.region else None
            if isinstance(lead, Point):
                yield from self._broadcast_region(
                    env, comm,
                    Access(acc.array, (lead,) + tuple(acc.region[1:])),
                    views)

    # ---- irregular loops, inspector-executor variant ---------------------

    def _run_irregular_inspector(self, env: ProcEnv, comm: Comm,
                                 loop: ParallelLoop, views: dict,
                                 scalars: dict, state: dict):
        """CHAOS-style: gather exactly the referenced rows, return exactly
        the produced contributions — no broadcasts."""
        from repro.compiler.inspector import (CommSchedule,
                                              footprint_fingerprint,
                                              inspect_reads)

        me = env.pid
        cache = state["__schedules__"]
        chunk = self.chunk(loop, me)
        lo, hi = chunk.bounds
        irr_reads = [acc for acc in loop.reads
                     if acc.irregular and acc.array not in loop.accumulate]
        if len(irr_reads) != 1:
            raise NotImplementedError("inspector-executor expects one "
                                      "irregular read stream per loop")
        acc = irr_reads[0]
        decl = self.decls[acc.array]
        row_elems = int(np.prod(decl.shape[1:])) if len(decl.shape) > 1 else 1
        row_nbytes = row_elems * np.dtype(decl.dtype).itemsize
        owner_bounds = [self.owned_rows(decl, p) for p in range(self.nprocs)]

        flat = chunk.footprint(acc, decl.shape, views).flat if chunk.count \
            else np.empty(0, np.int64)
        fp = footprint_fingerprint(flat)
        sched = cache.lookup(loop.name, fp)
        if sched is None:
            # ---- inspector: build and exchange the schedule
            yield from env.compute_gen(
                self.options.inspect_cost_per_element * max(len(flat), 1))
            recv_rows = inspect_reads(flat, row_elems, (lo, hi),
                                      owner_bounds)
            # accumulation buffers are row-aligned with the gathered array
            # (molecule i's force row pairs with its coordinate row), so
            # the contribution rows are exactly the foreign touched rows
            ret_rows: dict = (inspect_reads(flat, row_elems, (lo, hi),
                                            owner_bounds)
                              if loop.accumulate else {})
            sched = CommSchedule(fingerprint=fp, recv_rows=recv_rows,
                                 return_rows=ret_rows)
            for peer in range(self.nprocs):
                if peer == me:
                    continue
                want = recv_rows.get(peer, np.empty(0, np.int64))
                give = ret_rows.get(peer, np.empty(0, np.int64))
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
            cache.store(loop.name, sched)

        # ---- executor: scheduled gather of referenced rows
        for peer in sorted(sched.send_rows):
            rows = sched.send_rows[peer]
            yield from comm.send_gen(peer, views[acc.array][rows].copy(),
                                     tag=TAG_PARTITION)
        for peer in sorted(sched.recv_rows):
            rows = sched.recv_rows[peer]
            views[acc.array][rows] = yield from comm.recv_gen(
                src=peer, tag=TAG_PARTITION)

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
            state[name] = False      # only owners hold complete sums now
        for acc_w in loop.writes:
            wdecl = self.decls.get(acc_w.array)
            if wdecl is not None and wdecl.distribute is not None:
                state[acc_w.array] = False
        yield from self._fold_reductions(env, comm, loop, partials, scalars)

    def _run_irregular_loop(self, env: ProcEnv, comm: Comm,
                            loop: ParallelLoop, views: dict,
                            scalars: dict, state: dict):
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
        # prologue: restore replication of stale inputs
        for acc in loop.reads:
            decl = self.decls[acc.array]
            if decl.distribute is None or state.get(acc.array, True):
                continue
            yield from self._broadcast_partitions(env, comm, decl, views)
            state[acc.array] = True
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
            state[name] = True
        # epilogue: broadcast whole owned partitions of written arrays
        for acc in loop.writes:
            decl = self.decls[acc.array]
            if decl.distribute is None or acc.array in loop.accumulate:
                continue
            yield from self._broadcast_partitions(env, comm, decl, views)
            state[acc.array] = True
        yield from self._fold_reductions(env, comm, loop, partials, scalars)

    def _broadcast_partitions(self, env: ProcEnv, comm: Comm,
                              decl: ArrayDecl, views: dict):
        """Every processor sends its owned partition to every other."""
        me = env.pid
        olo, ohi = self.owned_rows(decl, me)
        mine = views[decl.name][olo:ohi].copy()
        for peer in range(self.nprocs):
            if peer == me:
                continue
            yield from comm.send_gen(peer, mine, tag=TAG_PARTITION)
        for peer in range(self.nprocs):
            if peer == me:
                continue
            plo, phi = self.owned_rows(decl, peer)
            views[decl.name][plo:phi] = yield from comm.recv_gen(
                src=peer, tag=TAG_PARTITION)

    def _fold_reductions(self, env: ProcEnv, comm: Comm, loop: ParallelLoop,
                         partials, scalars: dict):
        for red in loop.reductions:
            val = (partials or {}).get(red.name, red.identity)
            scalars[red.name] = yield from allreduce_gen(comm, val,
                                                         red.combine)


def compile_xhpf(program: Program, nprocs: int = 8,
                 options: Optional[XhpfOptions] = None) -> XhpfExecutable:
    return XhpfExecutable(program, options or XhpfOptions(), nprocs)


def run_xhpf(program: Program, nprocs: int = 8,
             options: Optional[XhpfOptions] = None,
             model: Optional[MachineModel] = None,
             schedule_seed: Optional[int] = None,
             faults: Optional[FaultPlan] = None) -> RunResult:
    """Compile and run; rank-0 scalars land in ``result.scalars``."""
    exe = compile_xhpf(program, nprocs, options)
    cluster = Cluster(nprocs=nprocs, model=model,
                      schedule_seed=schedule_seed, faults=faults)
    result = cluster.run(exe.run_on)
    result.scalars = result.results[0]
    result.fault_stats = cluster.net.fault_stats
    return result

"""Analytic performance model: predict time/messages/bytes without events.

The event simulator stops being practical past a few dozen nodes, yet the
interesting scaling questions — does the 2(n-1) fork-join beat the 8(n-1)
one at 256 nodes?  when does XHPF's broadcast-everything fallback drown the
network? — live at 16-1024 nodes.  Following the compositional modeling
methodology (Czappa et al.), this module walks the *same compiled program
structure* the backends execute and composes closed-form per-phase cost
terms along it, instead of scheduling events:

* the DSM variants (``spf``/``spf_old``) are modeled by a deterministic
  *protocol replica*: the per-node LRC state machine the simulator itself
  runs (:mod:`repro.tmk.lrc`) and its barrier/lock bookkeeping
  (:mod:`repro.tmk.sync`) are advanced in lockstep over the compiled
  schedule, with word-granularity write masks standing in for twins;
* the message-passing variants (``xhpf``/``xhpf_ie``) count and clock the
  XHPF backend's own communication plan
  (:attr:`~repro.compiler.xhpf.XhpfExecutable.plan` and its inspector
  schedules: the owners, regions and edges its SPMD program executes)
  under the packet rule of
  :func:`repro.msg.endpoint.packet_count`, with no message objects in
  flight.

Predictions carry the same :class:`~repro.api.RunResult` shape as a
simulation, flagged ``mode="model"``.  Message and byte counts
are the contract — ``tests/test_model_validation.py`` pins them against the
simulator at N <= 8 (validate small), which is what licenses the
``repro sweep`` extrapolation to 1024 nodes (trust large).  Virtual time is
a documented heuristic: protocol overheads are charged at the simulator's
rates but request/reply concurrency is approximated (see docs/MODEL.md).

The hand-coded variants (``tmk``/``pvme``) have no IR to compose over, and
``spf_opt`` exercises enhanced-interface paths the model does not replicate;
all three raise :class:`ModelUnsupportedVariant` — refusal is part of the
contract, exactly as the static lint refuses irregular apps.  So does
``seq``: it is run, not predicted (:func:`repro.api.execute` runs the
sequential oracle for a ``mode="model"`` request as for a simulated one).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.apps.common import get_app
from repro.compiler.inspector import ScheduleCache
from repro.compiler.ir import Access, ParallelLoop, SeqBlock
from repro.compiler.partition import SEQ
from repro.compiler.seq import sequential_time
from repro.compiler.spf import (REDUCTION_PREFIX, STAGING_PREFIX, SpfOptions,
                                _ensure_order, compile_spf)
from repro.compiler.xhpf import StatementPlan, compile_xhpf
from repro.msg.endpoint import packet_count
from repro.sim.machine import PAGE_SIZE, SP2_MODEL, MachineModel
from repro.sim.network import NetworkStats
from repro.tmk.diffs import WORD, mask_diff_nbytes
from repro.tmk.forkjoin import CTRL_ARG, CTRL_SUB, STOP
from repro.tmk.intervals import records_unknown_to
from repro.tmk.lrc import (GC_EPOCHS, LrcNode, diff_request_nbytes,
                           fork_nbytes, lock_request_nbytes, sync_nbytes)
from repro.tmk.pagespace import SharedSpace
from repro.tmk.stats import DsmStats
from repro.tmk.sync import BarrierManager, LockTable

from repro.api.registry import MODELED_VARIANTS

__all__ = ["ModelUnsupportedVariant", "MODELED_VARIANTS", "model_variant"]

_WORDS_PER_PAGE = PAGE_SIZE // WORD


class ModelUnsupportedVariant(ValueError):
    """The analytic model declines this variant (no IR / unmodeled paths)."""


def _tree_depth(n: int) -> int:
    return max(1, math.ceil(math.log2(n))) if n > 1 else 0


# ---------------------------------------------------------------------- #
# public entry point

def model_variant(app: str, variant: str, nprocs: int = 8,
                  preset: str = "bench",
                  machine: Optional[MachineModel] = None,
                  seq_time: Optional[float] = None):
    """Predict one (application, variant) run analytically.

    Returns a :class:`~repro.api.RunResult` with ``mode="model"``; same
    fields as a simulated run (``dsm`` carries the predicted
    :class:`DsmStats` for the DSM variants).  Raises
    :class:`ModelUnsupportedVariant` for ``seq``/``tmk``/``pvme``/``spf_opt``.
    """
    from repro.api.types import RunResult

    if variant == "seq":
        raise ModelUnsupportedVariant(
            "the sequential oracle is run, not modeled: execute() answers "
            "a mode='model' seq request with the oracle's own run")
    if variant not in MODELED_VARIANTS:
        raise ModelUnsupportedVariant(
            f"variant {variant!r} is not analytically modeled "
            f"(hand-coded programs have no IR to compose over; spf_opt "
            f"uses enhanced-interface paths the model does not replicate); "
            f"modeled variants: {MODELED_VARIANTS}")

    spec = get_app(app)
    params = spec.params(preset)
    mach = machine or SP2_MODEL

    program = spec.build_program(params)
    if seq_time is None:
        seq_time = sequential_time(program)
    if variant in ("spf", "spf_old"):
        options = SpfOptions(improved_interface=(variant == "spf"))
        m = _SpfModel(program, nprocs, mach, options)
    else:
        m = _XhpfModel(program, nprocs, mach,
                       inspector_executor=(variant == "xhpf_ie"))
    m.run()

    elapsed, wtraffic = m.window()
    total = m.traffic
    return RunResult(
        app=app, variant=variant, nprocs=nprocs, preset=preset,
        time=elapsed, seq_time=seq_time,
        messages=wtraffic.messages, kilobytes=wtraffic.kilobytes,
        signature=dict(m.scalars), dsm=m.dsm_stats,
        total_messages=total.messages, total_kilobytes=total.kilobytes,
        categories={k: (v[0], v[1]) for k, v in wtraffic.by_category.items()},
        mode="model",
    )


class _ModelBase:
    """Shared mark/window bookkeeping for both backend replicas."""

    def __init__(self):
        self.traffic = NetworkStats()
        self.marks: dict[str, tuple] = {}
        self.scalars: dict = {}
        self.dsm_stats: Optional[DsmStats] = None
        self._finish = 0.0

    def _mark(self, label: str, now: float) -> None:
        self.marks[label] = (now, self.traffic.snapshot())

    def window(self, start: str = "start", stop: str = "stop"):
        """(elapsed, traffic) between marks — RunResult.window semantics."""
        if start not in self.marks or stop not in self.marks:
            return self._finish, self.traffic
        t0, s0 = self.marks[start]
        t1, s1 = self.marks[stop]
        return t1 - t0, s1.delta(s0)


# ---------------------------------------------------------------------- #
# the DSM protocol replica (spf / spf_old)

class _MNode(LrcNode):
    """One processor's protocol state: the LRC core with changed-word masks
    as twins, ``int`` wire sizes as diff payloads and a float as the clock
    (no memory image — the model keeps one converged image for all)."""

    def __init__(self, pid: int, nprocs: int, npages: int,
                 machine: MachineModel, stats: DsmStats,
                 gc_epochs: Optional[int]):
        super().__init__(pid, nprocs, npages, machine, stats, gc_epochs)
        self.time = 0.0
        self.prev_touched: dict = {}

    def _encode_diff(self, page: int, twin: np.ndarray) -> int:
        return mask_diff_nbytes(twin)

    _diff_nbytes = staticmethod(int)

    def _page_image(self, page: int) -> int:
        return PAGE_SIZE

    def pay(self, charges) -> None:
        """Run a core action (a generator of charges) on this node's
        clock, one addition per charge, in the order they fall due."""
        for seconds in charges:
            self.time += seconds

    def _merge_order(self, patches: list) -> list:
        # sizes commute; request order keeps the clock's float sum stable
        return patches


class _SpfModel(_ModelBase):
    """Lockstep replica of the SPF-on-TreadMarks execution.

    One converged global memory image stands in for every node's private
    copy (legal for race-free programs: a node always faults a page current
    before touching it).  Per-node boolean word masks stand in for twins;
    diff sizes come from the masks via ``diffs.mask_diff_nbytes``, the
    simulator's own run rule.
    Each dispatch unit advances in phases — read faults for every
    processor, then write faults + kernels, then staging, then serialized
    reduction folds — which is the typical interleaving the simulator's
    scheduler produces (everyone faults at chunk start).
    """

    def __init__(self, program, nprocs: int, machine: MachineModel,
                 options: SpfOptions):
        super().__init__()
        self.machine = machine
        self.nprocs = nprocs
        self.exe = compile_spf(program, nprocs, options)
        self.space = SharedSpace()
        self.exe.setup_space(self.space)
        self.image = np.zeros(self.space.nbytes, dtype=np.uint8)
        self.words = self.image.view(np.uint32)
        self.views = {h.name: self.image[h.offset:h.offset + h.nbytes]
                      .view(h.dtype).reshape(h.shape)
                      for h in self.space.handles()}
        self.stats = DsmStats()
        self.dsm_stats = self.stats
        self.nodes = [_MNode(pid, nprocs, self.space.npages, machine,
                             self.stats, GC_EPOCHS)
                      for pid in range(nprocs)]
        self.barrier_mgr = BarrierManager(nprocs)
        self.lock_table = LockTable(nprocs)
        self._worker_seen = {w: (0,) * nprocs for w in range(1, nprocs)}
        so, ro = machine.send_overhead, machine.recv_overhead
        self._hop = lambda nbytes: so + machine.message_time(nbytes) + ro

    # ---- faulting (ensure_read / ensure_write replicas) ------------------

    def _ensure_read_pages(self, node: _MNode, pages) -> None:
        valid = node.valid
        for page in np.asarray(pages).tolist():
            if valid[page]:
                continue
            self.stats.read_faults += 1
            node.time += self.machine.fault_overhead
            self._fetch(node, page)

    def _ensure_write_pages(self, node: _MNode, pages) -> None:
        mach = self.machine
        valid, twins = node.valid, node.twins
        last, prev = node.last_written, node.prev_written
        open_id = node.seen.v[node.pid] + 1
        for page in np.asarray(pages).tolist():
            if not valid[page]:
                self.stats.read_faults += 1
                node.time += mach.fault_overhead
                self._fetch(node, page)
            if page not in twins:
                self.stats.write_faults += 1
                self.stats.twins_created += 1
                node.time += mach.fault_overhead + mach.twin_overhead
                twins[page] = np.zeros(_WORDS_PER_PAGE, dtype=bool)
            if last[page] != open_id:         # LrcNode.note_write, inline
                prev[page] = last[page]
                last[page] = open_id
                node.open_pages.append(page)

    def _fetch(self, node: _MNode, page: int) -> None:
        """TmkNode._fetch replica: the request/reply pairs are counted and
        charged to the requester one after another, not overlapped."""
        m = node.meta(page)
        missing = m.missing_writers()
        if not missing:
            node.valid[page] = 1
            return
        self.stats.fetches += 1
        mach = self.machine
        req_nbytes = diff_request_nbytes()
        replies = []
        for w, from_id in missing:
            self.traffic.record("diff_req", req_nbytes)
            node.time += self._hop(req_nbytes) + mach.protocol_overhead
            owner = self.nodes[w]
            if page in owner.twins:   # the requester waits for that diff
                node.time += owner._diff_and_cache(page)
            reply = owner._gather(page, from_id)
            nbytes = owner.reply_nbytes(reply)
            self.traffic.record("diff_rep", nbytes)
            node.time += self._hop(nbytes)
            replies.append((w, reply))
        node.pay(node._apply_replies(page, m, replies))
        node.valid[page] = 1

    # ---- synchronization replicas ---------------------------------------

    def _barrier(self) -> None:
        mach = self.machine
        arrive = 0.0
        payloads = {}
        for node in self.nodes:
            self.stats.barriers += 1
            node.close_interval()
            payloads[node.pid] = list(node.log_current)
            node.prune_log()
        if self.nprocs == 1:
            self.nodes[0].advance_epoch()
            return
        mgr = self.barrier_mgr
        gen = mgr.gen
        for node in self.nodes:
            recs = payloads[node.pid]
            if node.pid != 0:
                nbytes = sync_nbytes(recs, mach)
                self.traffic.record("sync", nbytes)
                arrive = max(arrive, node.time + self._hop(nbytes)
                             + mach.protocol_overhead)
            else:
                arrive = max(arrive, node.time)
            mgr.note_arrival(node.pid, gen, recs, node.seen.as_tuple())
        departures = mgr.departures()
        for node in self.nodes:
            recs = departures[node.pid]
            if node.pid != 0:
                nbytes = sync_nbytes(recs, mach)
                self.traffic.record("sync", nbytes)
                node.time = arrive + self._hop(nbytes)
            else:
                node.time = arrive
            node.pay(node.apply_records(recs, log=False))
            node.advance_epoch()

    def _lock_acquire(self, node: _MNode, lock: int) -> None:
        self.stats.lock_acquires += 1
        table = self.lock_table
        mach = self.machine
        manager = table.manager_of(lock)
        req_nbytes = lock_request_nbytes(self.nprocs)
        prev, _after = table.note_request(lock, node.pid)
        if node.pid == manager:
            if prev == node.pid:
                return                      # token never left: no messages
            self.stats.lock_remote_acquires += 1
            self.traffic.record("sync", req_nbytes)     # forward to prev
            node.time += self._hop(req_nbytes) + mach.protocol_overhead
            self._grant(node, self.nodes[prev])
            return
        self.stats.lock_remote_acquires += 1
        self.traffic.record("sync", req_nbytes)         # request to manager
        node.time += self._hop(req_nbytes) + mach.protocol_overhead
        if prev == node.pid:
            self._grant(node, None)                   # empty grant
        elif prev == manager:
            self._grant(node, self.nodes[manager])
        else:
            self.traffic.record("sync", req_nbytes)     # manager forwards
            node.time += self._hop(req_nbytes) + mach.protocol_overhead
            self._grant(node, self.nodes[prev])

    def _grant(self, node: _MNode, holder: Optional[_MNode]) -> None:
        """The grant message: the holder's records the acquirer lacks (none
        when the last holder re-acquires, ``holder=None``)."""
        records = [] if holder is None \
            else records_unknown_to(holder.retained_log, node.seen)
        nbytes = sync_nbytes(records, self.machine)
        self.traffic.record("sync", nbytes)
        node.time += self._hop(nbytes)
        node.pay(node.apply_records(records, log=True))

    def _lock_release(self, node: _MNode, lock: int) -> None:
        node.close_interval()
        self.lock_table.note_release(node.pid, lock)

    # ---- fork-join replicas ---------------------------------------------

    def _fork_improved(self) -> None:
        mach = self.machine
        master = self.nodes[0]
        master.close_interval()
        arrivals = []
        for w in range(1, self.nprocs):
            records = records_unknown_to(master.retained_log,
                                         self._worker_seen[w])
            nbytes = fork_nbytes(records, mach)
            self.traffic.record("sync", nbytes)
            master.time += mach.send_overhead
            arrivals.append((w, records, nbytes))
            self._worker_seen[w] = master.seen.as_tuple()
        master.prune_log()
        master.advance_epoch()
        for w, records, nbytes in arrivals:
            worker = self.nodes[w]
            worker.time = max(worker.time, master.time
                              + mach.message_time(nbytes)
                              + mach.recv_overhead)
            worker.pay(worker.apply_records(records, log=False))
            worker.advance_epoch()

    def _join_improved(self) -> None:
        mach = self.machine
        master = self.nodes[0]
        arrivals = []
        for w in range(1, self.nprocs):
            worker = self.nodes[w]
            worker.close_interval()
            records = list(worker.log_current)
            worker.prune_log()
            nbytes = sync_nbytes(records, mach)
            self.traffic.record("sync", nbytes)
            worker.time += mach.send_overhead
            arrivals.append((w, records, worker.seen.as_tuple(),
                             worker.time + mach.message_time(nbytes)))
        master.close_interval()
        for w, records, seen, t_arr in arrivals:
            master.time = max(master.time, t_arr) + mach.recv_overhead
            master.pay(master.apply_records(records, log=True))
            self._worker_seen[w] = seen

    def _fork_old(self, sub_id: int, params: tuple) -> None:
        master = self.nodes[0]
        self._captured_write(
            master, CTRL_SUB, (slice(0, 2),),
            [float(sub_id), float(len(params))])
        if len(params):
            self._captured_write(
                master, CTRL_ARG, (slice(0, len(params)),),
                np.asarray(params, dtype=np.float64))
        self._barrier()
        # workers read the two control pages (page fault each when invalid)
        nargs = len(params)
        for node in self.nodes[1:]:
            self._ensure_region(node, CTRL_SUB, (slice(0, 2),), write=False)
            self._ensure_region(node, CTRL_ARG,
                                (slice(0, max(nargs, 1)),), write=False)

    # ---- captured writes (mask maintenance) ------------------------------

    def _region_pages(self, name: str, region):
        return self.space[name].region_pages(region)

    def _ensure_region(self, node: _MNode, name: str, region,
                       write: bool) -> None:
        pages = self._region_pages(name, region)
        if write:
            self._ensure_write_pages(node, pages)
        else:
            self._ensure_read_pages(node, pages)

    def _snapshot(self, pages) -> dict:
        out = {}
        for page in np.asarray(pages).tolist():
            lo = page * _WORDS_PER_PAGE
            out[page] = self.words[lo:lo + _WORDS_PER_PAGE].copy()
        return out

    def _capture(self, node: _MNode, before: dict) -> None:
        for page, old in before.items():
            lo = page * _WORDS_PER_PAGE
            changed = self.words[lo:lo + _WORDS_PER_PAGE] != old
            mask = node.twins.get(page)
            if mask is not None:
                mask |= changed

    def _captured_write(self, node: _MNode, name: str, region,
                        values) -> None:
        pages = self._region_pages(name, region)
        self._ensure_write_pages(node, pages)
        before = self._snapshot(pages)
        self.views[name][region] = values
        self._capture(node, before)

    # ---- program walk ----------------------------------------------------

    def run(self) -> None:
        master = self.nodes[0]
        improved = self.exe.options.improved_interface
        for idx, unit in enumerate(self.exe.units):
            if unit.mark is not None:
                self._mark(unit.mark, master.time)
                continue
            if unit.seq is not None:
                self._run_seq(unit.seq)
                continue
            for loop in unit.loops:
                for red in loop.reductions:
                    self._captured_write(master, REDUCTION_PREFIX + red.name,
                                         (slice(0, 1),), red.identity)
            head = unit.loops[0]
            if improved:
                self._fork_improved()
            else:
                self._fork_old(idx, (float(head.start), float(head.extent)))
            self._run_unit_loops(unit)
            if improved:
                self._join_improved()
            else:
                self._barrier()
        if improved:
            self._fork_improved()              # fork(STOP): same wire shape
        else:
            self._fork_old(STOP, ())
        self.scalars = self._read_scalars()
        self._finish = max(node.time for node in self.nodes)

    def _run_seq(self, stmt: SeqBlock) -> None:
        master = self.nodes[0]
        for acc in stmt.reads:
            self._ensure_read_pages(master, self._pages(acc, SEQ))
        wpages: list = []
        for acc in stmt.writes:
            pgs = self._pages(acc, SEQ)
            self._ensure_write_pages(master, pgs)
            wpages.extend(pgs)
        before = self._snapshot(wpages)
        stmt.kernel(self.views)
        self._capture(master, before)
        cost = stmt.cost_for(self.exe.program.params)
        if cost:
            master.time += cost

    def _pages(self, acc: Access, chunk):
        return chunk.pages(acc, self.space[acc.array], self.views)

    def _run_unit_loops(self, unit) -> None:
        chunks = {(pid, li): self.exe.chunk(loop, pid)
                  for li, loop in enumerate(unit.loops)
                  for pid in range(self.nprocs)}
        # phase A: every processor's read faults (chunk-start behaviour)
        for node in self.nodes:
            for li, loop in enumerate(unit.loops):
                ch = chunks[(node.pid, li)]
                if not ch.count:
                    continue
                for acc in _ensure_order(loop.reads, loop.accumulate):
                    self._ensure_read_pages(node, self._pages(acc, ch))
        # phase B: write faults + kernel + staging, processor by processor
        partials_by: dict = {}
        for node in self.nodes:
            for li, loop in enumerate(unit.loops):
                ch = chunks[(node.pid, li)]
                views = self.views
                privates = None
                if loop.accumulate:
                    views = dict(self.views)
                    privates = {}
                    for name in loop.accumulate:
                        decl = self.exe.program.decl(name)
                        privates[name] = views[name] = np.zeros(
                            decl.shape, dtype=decl.dtype)
                wpages: list = []
                if ch.count:
                    for acc in _ensure_order(loop.writes, loop.accumulate):
                        pgs = self._pages(acc, ch)
                        self._ensure_write_pages(node, pgs)
                        wpages.extend(np.asarray(pgs).tolist())
                before = self._snapshot(wpages)
                partials, cost = ch.run(loop, views)
                self._capture(node, before)
                if cost:
                    node.time += cost
                if loop.accumulate:
                    self._stage_contributions(node, loop, privates)
                partials_by[(node.pid, li)] = partials
        # phase C: reduction folds, serialized through the lock chain
        free_at = 0.0
        for node in self.nodes:
            for li, loop in enumerate(unit.loops):
                if not loop.reductions:
                    continue
                partials = partials_by.get((node.pid, li))
                for red in loop.reductions:
                    val = (partials or {}).get(red.name, red.identity)
                    _red, lock_id = self.exe.reductions[red.name]
                    node.time = max(node.time, free_at)
                    self._lock_acquire(node, lock_id)
                    name = REDUCTION_PREFIX + red.name
                    self._ensure_region(node, name, (slice(0, 1),),
                                        write=False)
                    cur = float(self.views[name][0])
                    self._captured_write(node, name, (slice(0, 1),),
                                         red.combine(cur, val))
                    self._lock_release(node, lock_id)
                    free_at = node.time

    def _stage_contributions(self, node: _MNode, loop: ParallelLoop,
                             privates: dict) -> None:
        for name, buf in privates.items():
            handle = self.space[STAGING_PREFIX + name]
            flat = buf.reshape(buf.shape[0], -1)
            touched = np.flatnonzero(np.any(flat != 0, axis=1))
            key = (loop.name, name)
            prev = node.prev_touched.get(key)
            if prev is not None and (len(prev) != len(touched)
                                     or not np.array_equal(prev, touched)):
                touched = np.union1d(prev, touched)
            node.prev_touched[key] = touched
            if touched.size == 0:
                continue
            row_elems = int(np.prod(buf.shape[1:])) if buf.ndim > 1 else 1
            base = node.pid * buf.shape[0]
            pages = handle.element_pages((base + touched) * row_elems,
                                         elem_span=row_elems)
            self._ensure_write_pages(node, pages)
            before = self._snapshot(pages)
            self.views[STAGING_PREFIX + name][node.pid, touched] = buf[touched]
            self._capture(node, before)

    def _read_scalars(self) -> dict:
        master = self.nodes[0]
        out = {}
        for name in self.exe.reductions:
            self._ensure_region(master, REDUCTION_PREFIX + name,
                                (slice(0, 1),), write=False)
            out[name] = float(self.views[REDUCTION_PREFIX + name][0])
        return out


# ---------------------------------------------------------------------- #
# the message-passing replica (xhpf / xhpf_ie)

class _XhpfModel(_ModelBase):
    """The XHPF backend's communication plan, counted and clocked.

    Who sends what to whom comes from the compiled executable's plan, the
    one its SPMD program executes; this replica owns only a
    per-rank clock (``_phase``, ``_sync_clock``), the counting and the
    kernel runs.  A single converged array image stands in for the
    replicated per-rank copies (owner-computes chunks are disjoint, so
    running every rank's kernel chunk in turn reproduces the converged
    values).
    """

    def __init__(self, program, nprocs: int, machine: MachineModel,
                 inspector_executor: bool):
        super().__init__()
        self.machine = machine
        self.nprocs = nprocs
        self.exe = compile_xhpf(program, nprocs, inspector_executor)
        self.packet = machine.mp_packet_bytes
        self.views = {a.name: np.zeros(a.shape, dtype=a.dtype)
                      for a in program.arrays}
        self.stale: set = set()
        self.schedules = [ScheduleCache() for _ in range(nprocs)]
        self.times = np.zeros(nprocs)

    # ---- counting and the clock ------------------------------------------

    def _count_edges(self, edges: int, nbytes: int) -> None:
        """``edges`` identical data sends of ``nbytes`` each."""
        if edges:
            self.traffic.record("data", edges * nbytes,
                                edges * packet_count(nbytes, self.packet))

    def _phase(self, edges: list, category: str = "data") -> None:
        """Count a point-to-point phase [(src, dst, nbytes)] and advance
        the per-rank clock: sends overlap, receivers drain their inbound
        bytes after the slowest sender."""
        if not edges:
            return
        mach, n = self.machine, self.nprocs
        sm = np.zeros(n)
        rm = np.zeros(n)
        rb = np.zeros(n)
        for src, dst, nbytes in edges:
            seg = packet_count(nbytes, self.packet)
            self.traffic.record(category, nbytes, seg)
            sm[src] += seg
            rm[dst] += seg
            rb[dst] += nbytes
        self.times += sm * mach.send_overhead
        peak = float(self.times.max())
        hot = rm > 0
        self.times[hot] = (np.maximum(self.times[hot], peak + mach.latency)
                           + rb[hot] * mach.byte_time
                           + rm[hot] * mach.recv_overhead)

    def _sync_clock(self, round_nbytes: list) -> None:
        """Tree-collective clock: all ranks meet, then pay depth x hop."""
        mach = self.machine
        peak = float(self.times.max())
        depth = _tree_depth(self.nprocs)
        for nbytes in round_nbytes:
            peak += depth * (mach.send_overhead + mach.message_time(nbytes)
                             + mach.recv_overhead)
        self.times[:] = peak

    # ---- program walk ----------------------------------------------------

    def run(self) -> None:
        exe = self.exe
        for stmt, step in zip(exe.schedule, exe.plan):
            if step.kind == "mark":
                self._mark(stmt.label, float(self.times.max()))
            elif step.kind == "seq":
                self._broadcasts(step)
                stmt.kernel(self.views)
                cost = stmt.cost_for(exe.program.params)
                if cost:
                    self.times += cost        # redundant SPMD execution
            else:
                self._run_loop(stmt, step)
        self._finish = float(self.times.max())

    def _broadcasts(self, step: StatementPlan) -> None:
        for _owner, _array, _region, nbytes in step.parts:
            self._count_edges(self.nprocs - 1, nbytes)
            self._sync_clock([nbytes])

    def _run_loop(self, loop: ParallelLoop, step: StatementPlan) -> None:
        if step.kind == "broadcast":
            self._run_irregular_loop(loop, step)
            return
        self.stale.update(step.stale)
        if step.kind == "inspector":
            self._run_irregular_inspector(loop, step)
            return
        if step.kind == "cyclic":
            self._broadcasts(step)
        else:
            self._phase([(owner, receiver, nbytes) for owner, receiver, _a,
                         _r, nbytes in step.edges])
        self._fold_reductions(loop, self._run_chunks(loop, step.chunks))

    def _run_chunks(self, loop: ParallelLoop, chunks: tuple) -> dict:
        """Every rank's kernel chunk, run in turn over the converged image."""
        partials_by: dict = {}
        for p, chunk in enumerate(chunks):
            partials_by[p], cost = chunk.run(loop, self.views)
            if cost:
                self.times[p] += cost
        return partials_by

    # ---- irregular loops -------------------------------------------------

    def _run_irregular_loop(self, loop: ParallelLoop,
                            step: StatementPlan) -> None:
        n, mach = self.nprocs, self.machine
        before = step.before(self.stale)
        for name in before:
            self._broadcast_partitions(name)
        for name in loop.accumulate:
            self.views[name][...] = 0
        partials_by = self._run_chunks(loop, step.chunks)
        for name in loop.accumulate:
            nbytes = int(self.views[name].nbytes)
            self._count_edges(n * (n - 1), nbytes)
            seg = packet_count(nbytes, self.packet)
            peak = float(self.times.max())
            self.times[:] = (peak + (n - 1) * mach.send_overhead
                             + mach.latency
                             + (n - 1) * nbytes * mach.byte_time
                             + (n - 1) * seg * mach.recv_overhead)
        for name in step.after:
            self._broadcast_partitions(name)
        self.stale.difference_update(before, loop.accumulate, step.after)
        self._fold_reductions(loop, partials_by)

    def _broadcast_partitions(self, name: str) -> None:
        exe, n, mach = self.exe, self.nprocs, self.machine
        decl = exe.decls[name]
        row = exe.row_nbytes(decl)
        part_nbytes = [(hi - lo) * row for lo, hi in
                       (exe.owned_rows(decl, p) for p in range(n))]
        for nbytes in part_nbytes:
            self._count_edges(n - 1, nbytes)
        total = sum(part_nbytes)
        self.times += (n - 1) * mach.send_overhead
        peak = float(self.times.max())
        recv_b = np.array([total - nb for nb in part_nbytes], dtype=float)
        self.times[:] = (peak + mach.latency + recv_b * mach.byte_time
                         + (n - 1) * mach.recv_overhead)

    def _run_irregular_inspector(self, loop: ParallelLoop,
                                 step: StatementPlan) -> None:
        exe = self.exe
        scheds, fresh = [], []
        for p, cache in enumerate(self.schedules):
            sched, charge = exe.inspect(loop, step, p, self.views, cache)
            scheds.append(sched)
            if charge is not None:
                self.times[p] += charge
                fresh.append(p)
        self._phase([(p, peer, int(want.nbytes) + int(give.nbytes) + 8)
                     for p in fresh for peer, want, give
                     in exe.schedule_requests(scheds[p], p)], "sync")
        # executor: scheduled gather of referenced rows
        row = exe.row_nbytes(exe.decls[step.gathered.array])
        self._phase([(peer, p, len(rows) * row)
                     for p, sched in enumerate(scheds)
                     for peer, rows in sorted(sched.recv_rows.items())])
        for name in loop.accumulate:
            self.views[name][...] = 0
        partials_by = self._run_chunks(loop, step.chunks)
        # scheduled return of accumulation contributions
        for name in loop.accumulate:
            row = exe.row_nbytes(exe.decls[name])
            self._phase([(p, peer, len(rows) * row)
                         for p, sched in enumerate(scheds)
                         for peer, rows in sorted(sched.return_rows.items())])
        self._fold_reductions(loop, partials_by)

    # ---- reductions ------------------------------------------------------

    def _fold_reductions(self, loop: ParallelLoop, partials_by: dict) -> None:
        n = self.nprocs
        for red in loop.reductions:
            total = red.identity
            for p in range(n):
                val = (partials_by.get(p) or {}).get(red.name, red.identity)
                total = red.combine(total, val)
            self.scalars[red.name] = total
            if n > 1:
                self._count_edges(2 * (n - 1), 8)
                self._sync_clock([8, 8])

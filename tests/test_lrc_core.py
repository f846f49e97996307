"""The LRC state machine (repro.tmk.lrc) driven by hand.

No Simulator, no network, no memory image: two or three core nodes are
stepped through the protocol's corner cases with plain method calls — the
"fetch" below is the requester asking each missing writer to diff the page
if dirty and gather its cache, and merging the answers, exactly what a diff
request/reply round trip carries; the core's charges are summed onto a
float, as the analytic model does.  Then one script runs through both real users of the
core (``TmkNode`` on real bytes, the analytic model's ``_MNode`` on word
masks) and requires identical protocol state and counters.  Last, seeded
random sequences drive the real ``TmkNode`` walks over the flat page
columns against ``_RefNode``, the per-page walk they replaced, and require
equal state, records and charges, in value and order.
"""

import random
from array import array
from types import SimpleNamespace

import numpy as np
import pytest

from repro.compiler.model import _MNode
from repro.sim.engine import HOLD
from repro.sim.machine import PAGE_SIZE, SP2_MODEL
from repro.tmk.diffs import apply_diff, apply_diffs, diff_nbytes, make_diff
from repro.tmk.intervals import IntervalRecord, SeenVector, records_unknown_to
from repro.tmk.lrc import CacheEntry, LrcNode, PageReply
from repro.tmk.pagespace import SharedSpace
from repro.tmk.protocol import TmkNode
from repro.tmk.stats import DsmStats

PAGE = 0
NPAGES = 2


class Node(LrcNode):
    """The bare core: a twin is the list of words written since the last
    diff, and that list is the diff payload."""

    def __init__(self, pid, stats, gc_epochs=None, nprocs=3, npages=NPAGES):
        super().__init__(pid, nprocs, npages, SP2_MODEL, stats, gc_epochs)
        self.time = 0.0

    def _encode_diff(self, page, twin):
        return list(twin)

    def _diff_nbytes(self, diff):
        return 4 * len(diff)

    def _page_image(self, page):
        return f"image of page {page}"


def pay(node, charges):
    """Run a core action on ``node``'s clock.  The bare core and the model
    yield seconds; the simulator's node yields ``(HOLD, seconds)`` block
    requests and keeps its clock on ``node.proc``."""
    clock = getattr(node, "proc", node)
    for charge in charges:
        clock.time += charge[1] if isinstance(charge, tuple) else charge


def cluster(n=3, gc_epochs=None):
    stats = DsmStats()
    return [Node(pid, stats, gc_epochs, nprocs=n) for pid in range(n)], stats


def write(node, page, *words):
    assert node.valid[page], "fetch before writing an invalid page"
    if page not in node.twins:
        node.twins[page] = []
        node.stats.twins_created += 1
    node.twins[page].extend(words)
    node.note_write(page)


def fetch(node, page, nodes, payer=None):
    """``payer`` is billed for diffs the writers create on demand."""
    m = node.meta(page)
    replies = []
    for w, have in m.missing_writers():
        replies.append((w, collect(nodes[w], page, have, payer or node)))
    pay(node, node._apply_replies(page, m, replies))
    node.valid[page] = 1
    return replies


def collect(owner, page, from_id, payer):
    """What serving a diff request does: diff a dirty page first (``payer``
    waits for it), then gather the cache."""
    if page in owner.twins:
        payer.time += owner._diff_and_cache(page)
    return owner._gather(page, from_id)


def sync(src, dst, log=True):
    """Release at ``src``, acquire at ``dst`` (a lock hand-over)."""
    src.close_interval()
    pay(dst, dst.apply_records(records_unknown_to(src.retained_log, dst.seen),
                               log=log))


def entries(node, page=PAGE):
    return [(e.top, e.wm, e.okey) for e in node.diff_cache.get(page, [])]


# ---------------------------------------------------------------------- #

def test_lazy_twin_survives_intervals_until_someone_asks():
    (a, b, _c), stats = cluster()
    write(a, PAGE, "w0")
    a.close_interval()
    write(a, PAGE, "w1")                 # still dirty: no second twin
    sync(a, b)
    assert stats.twins_created == 1 and stats.diffs_created == 0
    assert not b.valid[PAGE] and b.meta(PAGE).pending == {0: 2}
    (_w, reply), = fetch(b, PAGE, [a, b])
    # one diff covers both intervals, labelled with the newer one
    assert [e.diff for e in reply.diffs] == [["w0", "w1"]]
    assert entries(a) == [(2, 2, (2, 0))]
    assert PAGE not in a.twins and stats.diffs_created == 1
    assert b.meta(PAGE).applied == {0: 2} and stats.diffs_applied == 1
    assert stats.diff_bytes_created == stats.diff_bytes_applied == 8
    # the requester paid for the creation it waited on and for the patch
    assert b.time == (SP2_MODEL.diff_create_time(PAGE_SIZE)
                      + SP2_MODEL.diff_apply_time(8))


def test_incoming_notice_diffs_a_dirty_page_before_invalidating():
    (a, b, _c), stats = cluster()
    write(a, PAGE, "a0")
    write(b, PAGE, "b0")                 # concurrent writer, disjoint words
    sync(a, b)
    assert not b.valid[PAGE] and PAGE not in b.twins
    assert [e.diff for e in b.diff_cache[PAGE]] == [["b0"]]
    assert stats.diffs_created == 1 and stats.invalidations == 1
    # the open interval's entry may be served (top) but not claimed (wm)
    assert entries(b) == [(1, 0, (2, 1))]
    assert b.time == SP2_MODEL.diff_create_time(PAGE_SIZE)
    # a notice whose content is already held neither diffs nor invalidates
    # (content can outrun notices: a full page or an image carries its
    # sender's watermarks)
    fetch(b, PAGE, [a, b])
    write(b, PAGE, "b1")
    (r1,) = a.log_current
    b.seen.v[0] = 0                      # as if r1 had not been learned yet
    pay(b, b.apply_records([r1]))
    assert b.valid[PAGE] and PAGE in b.twins and stats.invalidations == 1


def test_mid_interval_serve_then_same_interval_extension():
    (a, b, _c), stats = cluster()
    write(a, PAGE, "w0")
    sync(a, b)                           # a's interval 1 closed and noticed
    write(a, PAGE, "w1")                 # a's interval 2 is open
    fetch(b, PAGE, [a, b])
    # top names the open interval, wm only the last closed one
    assert entries(a) == [(2, 1, (2, 0))]
    assert b.meta(PAGE).applied == {0: 1}
    write(a, PAGE, "w2")                 # re-twin inside the same interval
    assert stats.twins_created == 2
    sync(a, b)                           # close: the notice for 2 re-invalidates
    assert not b.valid[PAGE]
    (_w, reply), = fetch(b, PAGE, [a, b])
    # the close extended the entry instead of appending a second one
    assert entries(a) == [(2, 2, (2, 0))]
    assert [e.diff for e in reply.diffs] == [["w0", "w1", "w2"]]
    assert b.meta(PAGE).applied == {0: 2}


def test_replies_merge_in_happens_before_order():
    (a, b, c), _stats = cluster()
    patched = []
    c._patch = lambda page, diff: patched.append(diff)
    write(b, PAGE, "b0")
    sync(b, a)
    fetch(a, PAGE, [a, b, c])
    write(a, PAGE, "a0")                 # happens after b's write
    sync(a, c)                           # c learns both (a logged b's record)
    assert c.meta(PAGE).missing_writers() == [(0, 0), (1, 0)]
    fetch(c, PAGE, [a, b, c])
    assert patched == [["b0"], ["a0"]]   # not request order: okey order


def test_gc_floor_forces_a_full_page_with_the_senders_watermarks():
    (a, b, c), stats = cluster(gc_epochs=2)
    write(b, PAGE, "b0")
    sync(b, a)
    fetch(a, PAGE, [a, b, c])            # a now holds b's interval 1
    write(a, 1, "w0")                    # page 1: a is the only writer
    sync(a, b)
    fetch(b, 1, [a, b, c])               # entry created at epoch 0
    for _ in range(2):
        a.advance_epoch()
    assert 1 in a.diff_cache and 1 not in a.gc_floor
    a.advance_epoch()                    # epoch 3: cutoff 1 > entry epoch 0
    assert 1 not in a.diff_cache and a.gc_floor[1] == 1
    sync(a, c)
    (_w, reply), = fetch(c, 1, [a, b, c])
    assert reply.diffs == [] and reply.full_page == "image of page 1"
    assert reply.full_label == 1 and reply.full_applied == {}
    assert a.reply_nbytes(reply) == 16 + PAGE_SIZE
    assert stats.full_page_fetches == 1 and c.meta(1).applied == {0: 1}
    # a requester already past the floor still gets (no) diffs, not a page
    assert collect(a, 1, 1, a).full_page is None


def test_sticky_multi_writer_pages_are_exempt_from_gc():
    (a, b, c), _stats = cluster(gc_epochs=1)
    write(a, PAGE, "a0")
    write(b, PAGE, "b0")
    sync(a, b)                           # b wrote it and hears of a: sticky
    assert b.meta(PAGE).sticky and PAGE in b.diff_cache
    write(c, 1, "c0")
    sync(c, b)                           # single remote writer: not sticky
    assert not b.meta(1).sticky
    for _ in range(5):
        b.advance_epoch()
    assert entries(b) == [(1, 0, (2, 1))] and PAGE not in b.gc_floor


def test_records_are_retained_for_two_global_sync_windows():
    (a, b, _c), _stats = cluster()
    write(a, PAGE, "w0")
    r1 = a.close_interval()
    assert a.log_current == [r1] and a.close_interval() is None
    a.prune_log()
    assert (a.log_prev, a.log_current, a.retained_log) == ([r1], [], [r1])
    write(a, PAGE, "w1")
    r2 = a.close_interval()
    assert a.retained_log == [r1, r2]
    a.prune_log()
    assert a.retained_log == [r2]        # r1 is two windows old: dropped
    # learned records are logged for forwarding unless the caller says the
    # whole cluster already has them (barrier departures, forks)
    pay(b, b.apply_records([r1], log=True))
    pay(b, b.apply_records([r2], log=False))
    pay(b, b.apply_records([r1, r2], log=True))  # re-sends filtered by ``seen``
    assert b.log_current == [r1] and b.seen.as_tuple() == (2, 0, 0)


# ---------------------------------------------------------------------- #
# differential: the two real users of the core, one script

class _Clock:
    def __init__(self):
        self.time = 0.0


def _sim_nodes(n, gc_epochs, cls=TmkNode, npages=NPAGES):
    """TmkNodes over real bytes, with the simulator faked away: one clock
    stands in for whichever process is executing."""
    space = SharedSpace()
    space.alloc("x", (1024 * npages,), np.float32)
    world = SimpleNamespace(dsm_stats=DsmStats(), gc_epochs=gc_epochs,
                            space=space, nodes={}, fastpath=True)
    nodes = []
    for pid in range(n):
        clock = _Clock()
        env = SimpleNamespace(pid=pid, nprocs=n, model=SP2_MODEL, net=None,
                              proc=clock)
        nodes.append(cls(world, env))
    return nodes, world.dsm_stats


def _sim_write(node, page, words, value):
    pay(node, node._write_fault_if_needed(page))
    node.page_bytes(page).view(np.float32)[list(words)] = value


def _model_nodes(n, gc_epochs):
    stats = DsmStats()
    return [_MNode(pid, n, NPAGES, SP2_MODEL, stats, gc_epochs)
            for pid in range(n)], stats


def _model_write(node, page, words, value):
    if page not in node.twins:
        node.twins[page] = np.zeros(PAGE_SIZE // 4, dtype=bool)
        node.stats.write_faults += 1
        node.stats.twins_created += 1
        node.time += SP2_MODEL.fault_overhead + SP2_MODEL.twin_overhead
    node.twins[page][list(words)] = True
    node.note_write(page)


def _script(nodes, write, clock):
    """Every corner case above, strung together; yields after each step."""
    a, b, c = nodes

    def pull(node, page):
        fetch(node, page, nodes, payer=clock(node))

    write(a, PAGE, range(0, 10), 1.0)
    sync(a, b)
    write(a, PAGE, range(10, 20), 2.0)           # lazy twin, open interval
    pull(b, PAGE)                                # mid-interval serve
    yield "mid-interval serve"
    write(a, PAGE, range(20, 30), 3.0)           # re-twin, same interval
    write(a, 1, range(0, 1024), 4.0)
    sync(a, b)
    pull(b, PAGE)                                # same-interval extension
    pull(b, 1)
    write(b, PAGE, range(100, 110), 5.0)
    yield "extension"
    write(a, PAGE, range(30, 32), 6.0)
    sync(a, b)                                   # notice hits b's dirty page
    pull(b, PAGE)
    yield "diff before invalidate"
    sync(b, c)                                   # c learns of a and b via b
    pull(c, PAGE)                                # two writers, okey order
    yield "two writers"
    for node in nodes:
        for _ in range(3):
            node.advance_epoch()
    pull(c, 1)                                   # GC'd at a: full page
    yield "full-page fallback"


def _state(nodes):
    out = []
    for node in nodes:
        for page in (PAGE, 1):
            m = node.meta(page)
            out.append((node.pid, page, node.valid[page], page in node.twins,
                        m.sticky, dict(m.pending), dict(m.applied),
                        node.last_written[page], node.claimable(page),
                        entries(node, page), node.gc_floor.get(page)))
        out.append((node.seen.as_tuple(), sorted(node.open_pages),
                    node.vtsums, node.log_prev, node.log_current, node.epoch))
    return out


def test_simulator_node_and_model_node_agree_step_by_step():
    sim_nodes, sim_stats = _sim_nodes(3, gc_epochs=2)
    mod_nodes, mod_stats = _model_nodes(3, gc_epochs=2)
    sim = _script(sim_nodes, _sim_write, lambda node: node.env.proc)
    mod = _script(mod_nodes, _model_write, lambda node: node)
    steps = 0
    for sim_step, mod_step in zip(sim, mod, strict=True):
        assert sim_step == mod_step
        assert _state(sim_nodes) == _state(mod_nodes), sim_step
        steps += 1
    assert steps == 5
    assert sim_stats.full_page_fetches == 1 and sim_stats.diffs_applied >= 6
    # the fast path is the simulator's own; every other counter must agree
    ignore = {"fastpath_hits", "fastpath_misses", "region_cache_hits"}
    for name, value in vars(sim_stats).items():
        if name not in ignore:
            assert value == getattr(mod_stats, name), name
    # the same protocol work was billed to the same nodes (the model sums
    # a fetch's patches in request order, the simulator in okey order)
    assert [n.env.proc.time for n in sim_nodes] == pytest.approx(
        [n.time for n in mod_nodes], rel=1e-12)
    # and the bytes really moved: c holds a's and b's words, merged
    page0 = sim_nodes[2].page_bytes(PAGE).view(np.float32)
    assert page0[[0, 10, 20, 30, 100]].tolist() == [1.0, 2.0, 3.0, 6.0, 5.0]
    assert (sim_nodes[2].page_bytes(1).view(np.float32) == 4.0).all()


# ---------------------------------------------------------------------- #
# differential: the flat core against the per-page walk it replaced

class _RefNode:
    """Reference: the protocol as it was stated per page, kept here to
    compare against.  Every page has one record with every field; a set
    holds the open interval's pages; a close stamps each written page's
    ``last_closed``/``last_okey``; a notice batch builds a writer set per
    page and calls out per notice; GC scans the whole cache; every page of
    a write footprint goes through the fault step.  Real bytes and
    ``(HOLD, seconds)`` charges, like ``TmkNode``."""

    class Meta:
        __slots__ = ("valid", "twin", "pending", "applied", "last_written",
                     "last_closed", "last_okey", "sticky")

        def __init__(self):
            self.valid, self.twin, self.sticky = True, None, False
            self.pending, self.applied = {}, {}
            self.last_written = self.last_closed = 0
            self.last_okey = None

        def missing_writers(self):
            return [(w, self.applied.get(w, 0)) for w, need
                    in self.pending.items() if need > self.applied.get(w, 0)]

    def __init__(self, pid, nprocs, npages, stats, gc_epochs):
        self.pid, self.stats, self.gc_epochs = pid, stats, gc_epochs
        self.model = SP2_MODEL
        self.mem = np.zeros(npages * PAGE_SIZE, dtype=np.uint8)
        self.metas = {}
        self.seen = SeenVector(nprocs)
        self.open_writes = set()
        self.log_current, self.log_prev = [], []
        self.diff_cache, self.gc_floor, self.epoch = {}, {}, 0
        self.peers, self.current, self.server_charges = None, None, []

    def meta(self, page):
        return self.metas.setdefault(page, self.Meta())

    def page_bytes(self, page):
        size = PAGE_SIZE
        return self.mem[page * size:(page + 1) * size]

    def note_write(self, page, m):
        m.last_written = self.seen[self.pid] + 1
        self.open_writes.add(page)

    def diff_and_cache(self, page):
        m = self.meta(page)
        diff = make_diff(self.page_bytes(page), m.twin)
        m.twin = None
        self.stats.diffs_created += 1
        self.stats.diff_bytes_created += diff_nbytes(diff)
        if diff:
            top = m.last_written
            if page in self.open_writes:
                wm, okey = m.last_closed, (sum(self.seen.v) + 1, self.pid)
            else:
                wm = m.last_written
                okey = m.last_okey or (sum(self.seen.v), self.pid)
            lst = self.diff_cache.setdefault(page, [])
            if lst and lst[-1].top >= top:
                prev = lst.pop()
                lst.append(CacheEntry(max(prev.top, top), max(prev.wm, wm),
                                      max(prev.okey, okey), prev.diff + diff,
                                      self.epoch))
            else:
                lst.append(CacheEntry(top, wm, okey, diff, self.epoch))
        return self.model.diff_create_time(PAGE_SIZE)

    def gather(self, page, from_id):
        m, cached = self.meta(page), self.diff_cache.get(page, [])
        if from_id < self.gc_floor.get(page, 0):
            top = max([m.last_closed] + [e.top for e in cached])
            return PageReply([], self.page_bytes(page).tobytes(), top,
                             dict(m.applied))
        return PageReply([e for e in cached if e.top > from_id])

    def apply_replies(self, page, m, replies):
        base = {}
        fulls = [(w, rep) for w, rep in replies if rep.full_page is not None]
        if fulls:
            w, rep = max(fulls, key=lambda t: t[1].full_label)
            dst = self.page_bytes(page)
            dst[:] = np.frombuffer(rep.full_page, dtype=np.uint8)
            apply_diffs(dst, [e.diff for e in self.diff_cache.get(page, [])])
            base = dict(rep.full_applied or {})
            base[w] = max(base.get(w, 0), rep.full_label)
            self.stats.full_page_fetches += 1
            for ww, r in fulls:
                m.applied[ww] = max(m.applied.get(ww, 0), r.full_label,
                                    m.pending.get(ww, 0))
        patches = []
        for w, rep in replies:
            for top, wm, okey, diff, _epoch in rep.diffs:
                if top <= base.get(w, 0):
                    m.applied[w] = max(m.applied.get(w, 0), wm)
                    continue
                patches.append((okey, w, wm, diff))
        for _okey, w, wm, diff in sorted(patches, key=lambda t: t[0]):
            apply_diff(self.page_bytes(page), diff)
            nbytes = diff_nbytes(diff)
            yield HOLD, self.model.diff_apply_time(nbytes)
            self.stats.diffs_applied += 1
            self.stats.diff_bytes_applied += nbytes
            m.applied[w] = max(m.applied.get(w, 0), wm)
        for w, _from in m.missing_writers():
            m.applied[w] = max(m.applied.get(w, 0), m.pending.get(w, 0))

    def close_interval(self):
        if not self.open_writes:
            return None
        new_id = self.seen[self.pid] + 1
        self.seen.v[self.pid] = new_id
        vtsum = sum(self.seen.v)
        rec = IntervalRecord(self.pid, new_id,
                             tuple(sorted(self.open_writes)), vtsum)
        for page in self.open_writes:
            m = self.meta(page)
            m.last_okey, m.last_closed = (vtsum, self.pid), new_id
        self.open_writes = set()
        self.log_current.append(rec)
        return rec

    def apply_records(self, records, log):
        self.stats.epoch_bumps += 1
        writers = {}
        for rec in records:
            if not self.seen.observe(rec):
                continue
            if log:
                self.log_current.append(rec)
            for page in rec.pages:
                writers.setdefault(page, set()).add(rec.proc)
                if rec.proc == self.pid:
                    continue
                m = self.meta(page)
                if rec.id > m.pending.get(rec.proc, 0):
                    m.pending[rec.proc] = rec.id
                if rec.id <= m.applied.get(rec.proc, 0):
                    continue
                if m.twin is not None:
                    yield HOLD, self.diff_and_cache(page)
                if m.valid:
                    m.valid = False
                    self.stats.invalidations += 1
        for page, ws in writers.items():
            m = self.metas.get(page)
            if m is not None and (len(ws) > 1 or (m.last_written > 0
                                                  and ws - {self.pid})):
                m.sticky = True

    def prune_log(self):
        self.log_prev, self.log_current = self.log_current, []

    def advance_epoch(self):
        self.epoch += 1
        cutoff = self.epoch - self.gc_epochs
        if cutoff <= 0:
            return
        for page, lst in list(self.diff_cache.items()):
            if self.meta(page).sticky:
                continue
            kept = [e for e in lst if e.epoch >= cutoff]
            if len(kept) < len(lst):
                self.gc_floor[page] = max(
                    self.gc_floor.get(page, 0),
                    max(e.top for e in lst if e.epoch < cutoff))
            if kept:
                self.diff_cache[page] = kept
            else:
                del self.diff_cache[page]

    # the user's walks: every page through the fault step
    def write_faults(self, pages):
        for page in pages:
            self.current = page
            m = self.meta(page)
            if not m.valid:
                self.stats.read_faults += 1
                yield HOLD, self.model.fault_overhead
                yield from self.fetch(page)
            if m.twin is None:
                self.stats.write_faults += 1
                self.stats.twins_created += 1
                yield HOLD, (self.model.fault_overhead
                             + self.model.twin_overhead)
                m.twin = self.page_bytes(page).copy()
            self.note_write(page, m)

    def read_fault(self, page):
        if not self.meta(page).valid:
            self.stats.read_faults += 1
            yield HOLD, self.model.fault_overhead
            yield from self.fetch(page)

    def fetch(self, page):
        m = self.meta(page)
        replies = []
        for w, have in m.missing_writers():
            owner = self.peers[w]
            if owner.meta(page).twin is not None:
                owner.server_charges.append(owner.diff_and_cache(page))
            replies.append((w, owner.gather(page, have)))
        yield from self.apply_replies(page, m, replies)
        m.valid = True


class _FlatNode(TmkNode):
    """The real ``TmkNode`` walks, with a fetch that asks its peers
    directly (what a diff request/reply round trip carries)."""

    peers, current = None, None

    def __init__(self, world, env):
        super().__init__(world, env)
        self.server_charges = []

    def _write_fault_if_needed(self, page):
        self.current = page
        yield from super()._write_fault_if_needed(page)

    def _fetch(self, page):
        m = self.meta(page)
        replies = []
        for w, have in m.missing_writers():
            owner = self.peers[w]
            if page in owner.twins:
                owner.server_charges.append(owner._diff_and_cache(page))
            replies.append((w, owner._gather(page, have)))
        yield from self._apply_replies(page, m, replies)
        self.valid[page] = 1


def _entries_of(cache, page):
    return [(e.top, e.wm, e.okey, e.epoch,
             [(off, bytes(data)) for off, data in e.diff])
            for e in cache.get(page, [])]


def _flat_state(node, npages):
    pages = []
    for p in range(npages):
        m = node._meta.get(p)
        closed = node.claimable(p)
        pages.append((bool(node.valid[p]), p in node.twins,
                      bool(m and m.sticky), dict(m.pending) if m else {},
                      dict(m.applied) if m else {}, node.last_written[p],
                      closed, (node.vtsums[closed], node.pid) if closed
                      else None, _entries_of(node.diff_cache, p),
                      node.gc_floor.get(p)))
        # the write mask's promise: valid, twinned, written in the open one
        if node.fast.write_ok[p]:
            assert node.valid[p] and p in node.twins
            assert node.last_written[p] == node.seen[node.pid] + 1
    return (pages, node.seen.as_tuple(), sorted(node.open_pages),
            node.log_prev, node.log_current, node.epoch,
            node.mem.tobytes(), node.server_charges)


def _ref_state(node, npages):
    pages = []
    for p in range(npages):
        m = node.meta(p)
        pages.append((m.valid, m.twin is not None, m.sticky, dict(m.pending),
                      dict(m.applied), m.last_written, m.last_closed,
                      m.last_okey, _entries_of(node.diff_cache, p),
                      node.gc_floor.get(p)))
    return (pages, node.seen.as_tuple(), sorted(node.open_writes),
            node.log_prev, node.log_current, node.epoch,
            node.mem.tobytes(), node.server_charges)


def _lockstep(flat, flat_gen, ref, ref_gen, rng, footprint=None):
    """Run one action on both sides, charge by charge: equal value and
    order.  At a charge the node's server may run and diff a dirty page —
    in a write walk, one the walk has already passed."""
    while True:
        charge = next(flat_gen, None)
        assert charge == next(ref_gen, None)
        if charge is None:
            return
        if rng.random() < 0.5:
            continue
        if footprint is None:
            dirty = sorted(flat.twins)
            assert dirty == sorted(p for p, m in ref.metas.items()
                                   if m.twin is not None)
        else:
            assert flat.current == ref.current
            passed = footprint[:footprint.index(flat.current)]
            dirty = [p for p in passed if p in flat.twins]
            assert dirty == [p for p in passed
                             if ref.meta(p).twin is not None]
        if dirty:
            page = rng.choice(dirty)
            flat.server_charges.append(flat._diff_and_cache(page))
            ref.server_charges.append(ref.diff_and_cache(page))


def _differential_run(seed, nprocs=3, npages=6, ops=80, gc_epochs=1):
    rng = random.Random(seed)
    flat, flat_stats = _sim_nodes(nprocs, gc_epochs, _FlatNode, npages)
    ref_stats = DsmStats()
    ref = [_RefNode(pid, nprocs, npages, ref_stats, gc_epochs)
           for pid in range(nprocs)]
    for side in (flat, ref):
        for node in side:
            node.peers = side
    records = []                         # every record closed, in order

    def close(pid):
        rec = flat[pid].close_interval()
        assert rec == ref[pid].close_interval()
        if rec is not None:
            records.append(rec)

    def acquire(pid, batch, log):
        _lockstep(flat[pid], flat[pid].apply_records(batch, log=log),
                  ref[pid], ref[pid].apply_records(batch, log), rng)

    kinds = {"mixed": 0, "server": 0, "held": 0}
    for _step in range(ops):
        op = rng.choices(("write", "read", "sync", "close", "barrier"),
                         weights=(5, 3, 3, 1, 2))[0]
        pid = rng.randrange(nprocs)
        if op == "write":
            footprint = sorted(rng.sample(range(npages), rng.randint(1, 4)))
            charged = [p for p in footprint
                       if not flat[pid].valid[p] or p not in flat[pid].twins]
            kinds["mixed"] += 0 < len(charged) < len(footprint)
            before = len(flat[pid].server_charges)
            _lockstep(flat[pid], flat[pid]._write_faults(np.array(footprint)),
                      ref[pid], ref[pid].write_faults(footprint), rng,
                      footprint)
            kinds["server"] += len(flat[pid].server_charges) > before
            for page in footprint:            # the kernel writes its words
                words = rng.sample(range(1024), 8)
                value = float(rng.randint(1, 99))
                for node in (flat[pid], ref[pid]):
                    node.page_bytes(page).view(np.float32)[words] = value
        elif op == "read":
            page = rng.randrange(npages)
            _lockstep(flat[pid], flat[pid]._read_fault_if_needed(page),
                      ref[pid], ref[pid].read_fault(page), rng)
        elif op == "sync":                    # a lock hand-over src -> pid
            src = rng.choice([p for p in range(nprocs) if p != pid])
            close(src)
            # everything src knows — records pid has seen, and pid's own,
            # included: the seen filter must drop them
            batch = sorted((r for r in records
                            if r.id <= flat[src].seen[r.proc]),
                           key=lambda r: (r.proc, r.id))
            held = [(r, p) for r in batch if r.proc != pid
                    and r.id > flat[pid].seen[r.proc] for p in r.pages
                    if p in flat[pid]._meta
                    and r.id <= flat[pid]._meta[p].applied.get(r.proc, 0)]
            kinds["held"] += bool(held)
            acquire(pid, batch, log=rng.random() < 0.5)
        elif op == "close":
            close(pid)
        else:                                 # barrier
            for p in range(nprocs):
                close(p)
            batch = sorted(records, key=lambda r: (r.proc, r.id))
            for p in range(nprocs):
                acquire(p, batch, log=False)
                for side in (flat, ref):
                    side[p].advance_epoch()
                    side[p].prune_log()
        for f, r in zip(flat, ref):
            assert _flat_state(f, npages) == _ref_state(r, npages), (seed, op)
    ignore = {"fastpath_hits", "fastpath_misses", "region_cache_hits"}
    for name, value in vars(ref_stats).items():
        if name not in ignore:
            assert getattr(flat_stats, name) == value, name
    return kinds, flat_stats


@pytest.mark.parametrize("seed", range(12))
def test_flat_core_matches_the_per_page_reference(seed):
    _kinds, stats = _differential_run(seed)
    assert stats.invalidations > 0 and stats.diffs_applied > 0


def test_differential_generator_reaches_every_case():
    totals = dict.fromkeys(("mixed", "server", "held", "full"), 0)
    for seed in range(12):
        kinds, stats = _differential_run(seed)
        kinds["full"] = stats.full_page_fetches
        for k in totals:
            totals[k] += kinds[k]
    # footprints of charge-free and charged pages, a server diff landing
    # inside a walk, a notice for content already held and the GC
    # fallback all happened somewhere in the seeds
    assert all(totals.values()), totals


def test_state_stays_sparse_in_writers_at_1024_nodes():
    """Writer-indexed state is per notice, never pages x nprocs: a node of
    1024 that hears from 1023 writers holds columns of ``npages`` and one
    ``pending`` entry per notice."""
    nprocs, npages = 1024, 64
    node = Node(0, DsmStats(), nprocs=nprocs, npages=npages)
    records = [IntervalRecord(w, 1, (w % npages,), 1 + w)
               for w in range(1, nprocs)]
    pay(node, node.apply_records(records))
    for name, value in vars(node).items():
        if isinstance(value, (bytearray, array, list, np.ndarray)):
            assert len(value) <= max(npages, nprocs), name
    assert sum(len(m.pending) + len(m.applied)
               for m in node._meta.values()) == nprocs - 1
    assert len(node._meta) == npages

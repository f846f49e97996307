"""The LRC state machine (repro.tmk.lrc) driven by hand.

No Simulator, no network, no memory image: two or three core nodes are
stepped through the protocol's corner cases with plain method calls — the
"fetch" below is the requester asking each missing writer to diff the page
if dirty and gather its cache, and merging the answers, exactly what a diff
request/reply round trip carries; the core's charges are summed onto a
float, as the analytic model does.  The last test runs one script through both real users of the
core (``TmkNode`` on real bytes, the analytic model's ``_MNode`` on word
masks) and requires identical protocol state and counters.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.compiler.model import _MNode
from repro.sim.machine import SP2_MODEL
from repro.tmk.intervals import records_unknown_to
from repro.tmk.lrc import LrcNode
from repro.tmk.pagespace import SharedSpace
from repro.tmk.protocol import TmkNode
from repro.tmk.stats import DsmStats

PAGE = 0


class Node(LrcNode):
    """The bare core: a twin is the list of words written since the last
    diff, and that list is the diff payload."""

    def __init__(self, pid, stats, gc_epochs=None, nprocs=3):
        super().__init__(pid, nprocs, SP2_MODEL, stats, gc_epochs)
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
    m = node.meta(page)
    assert m.valid, "fetch before writing an invalid page"
    if not m.dirty:
        m.twin = []
        node.stats.twins_created += 1
    m.twin.extend(words)
    node.note_write(page, m)


def fetch(node, page, nodes, payer=None):
    """``payer`` is billed for diffs the writers create on demand."""
    m = node.meta(page)
    replies = []
    for w, have in m.missing_writers():
        replies.append((w, collect(nodes[w], page, have, payer or node)))
    pay(node, node._apply_replies(page, m, replies))
    m.valid = True
    return replies


def collect(owner, page, from_id, payer):
    """What serving a diff request does: diff a dirty page first (``payer``
    waits for it), then gather the cache."""
    m = owner.meta(page)
    if m.dirty:
        payer.time += owner._diff_and_cache(page, m)
    return owner._gather(page, m, from_id)


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
    assert not b.meta(PAGE).valid and b.meta(PAGE).pending == {0: 2}
    (_w, reply), = fetch(b, PAGE, [a, b])
    # one diff covers both intervals, labelled with the newer one
    assert [e.diff for e in reply.diffs] == [["w0", "w1"]]
    assert entries(a) == [(2, 2, (2, 0))]
    assert not a.meta(PAGE).dirty and stats.diffs_created == 1
    assert b.meta(PAGE).applied == {0: 2} and stats.diffs_applied == 1
    assert stats.diff_bytes_created == stats.diff_bytes_applied == 8
    # the requester paid for the creation it waited on and for the patch
    assert b.time == (SP2_MODEL.diff_create_time(SP2_MODEL.page_size)
                      + SP2_MODEL.diff_apply_time(8))


def test_incoming_notice_diffs_a_dirty_page_before_invalidating():
    (a, b, _c), stats = cluster()
    write(a, PAGE, "a0")
    write(b, PAGE, "b0")                 # concurrent writer, disjoint words
    sync(a, b)
    mb = b.meta(PAGE)
    assert not mb.valid and not mb.dirty
    assert [e.diff for e in b.diff_cache[PAGE]] == [["b0"]]
    assert stats.diffs_created == 1 and stats.invalidations == 1
    # the open interval's entry may be served (top) but not claimed (wm)
    assert entries(b) == [(1, 0, (2, 1))]
    assert b.time == SP2_MODEL.diff_create_time(SP2_MODEL.page_size)
    # a notice whose content is already held neither diffs nor invalidates
    fetch(b, PAGE, [a, b])
    write(b, PAGE, "b1")
    assert b._apply_notice(0, 1, PAGE) is None
    assert mb.valid and mb.dirty and stats.invalidations == 1


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
    assert not b.meta(PAGE).valid
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
    assert a.reply_nbytes(reply) == 16 + SP2_MODEL.page_size
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


def _sim_nodes(n, gc_epochs):
    """TmkNodes over real bytes, with the simulator faked away: one clock
    stands in for whichever process is executing."""
    space = SharedSpace()
    space.alloc("x", (2048,), np.float32)          # two pages
    world = SimpleNamespace(dsm_stats=DsmStats(), gc_epochs=gc_epochs,
                            space=space, nodes={}, fastpath=True)
    nodes = []
    for pid in range(n):
        clock = _Clock()
        env = SimpleNamespace(pid=pid, nprocs=n, model=SP2_MODEL, net=None,
                              proc=clock)
        nodes.append(TmkNode(world, env))
    return nodes, world.dsm_stats


def _sim_write(node, page, words, value):
    pay(node, node._write_fault_if_needed(page))
    node.page_bytes(page).view(np.float32)[list(words)] = value


def _model_nodes(n, gc_epochs):
    stats = DsmStats()
    return [_MNode(pid, n, SP2_MODEL, stats, gc_epochs)
            for pid in range(n)], stats


def _model_write(node, page, words, value):
    m = node.meta(page)
    if not m.dirty:
        m.twin = np.zeros(SP2_MODEL.page_size // 4, dtype=bool)
        node.stats.write_faults += 1
        node.stats.twins_created += 1
        node.time += SP2_MODEL.fault_overhead + SP2_MODEL.twin_overhead
    m.twin[list(words)] = True
    node.note_write(page, m)


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
            out.append((node.pid, page, m.valid, m.dirty, m.sticky,
                        dict(m.pending), dict(m.applied), m.last_written,
                        m.last_closed, m.last_okey, entries(node, page),
                        node.gc_floor.get(page)))
        out.append((node.seen.as_tuple(), sorted(node.open_writes),
                    node.log_prev, node.log_current, node.epoch))
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

"""Per-node lazy-invalidate release-consistency protocol engine.

One :class:`TmkNode` lives on each simulated processor.  The protocol's
state machine — metadata, intervals, the diff cache and its GC, notice
handling, reply merging — is :class:`repro.tmk.lrc.LrcNode`, shared with
the analytic model; this module adds what only the event simulator has:
real memory, twins, fast-path masks, fetch/serve messaging and virtual
time.  Together they own

* the node's private copy of the whole shared address space (a numpy byte
  view of one private anonymous mapping, resident only in the 4 KB pages
  the node has touched; applications compute through views of it),
* per-page coherence state (validity, twin, pending write notices,
  per-writer applied watermarks),
* the interval/vector-time machinery of lazy release consistency,
* the request-serving side (diff and page requests arrive at the node's
  server process and are answered out of this state).

Every operation here that can wait — a fault's overhead, the fetch round
trip, patching the replies — is written once, as a generator of engine
block requests.  The access hooks keep the coherence fast path a plain
call: ``ensure_*_steps`` checks the masks and returns ``None`` on a hit,
the generator that faults the pages in on a miss (a program writes ``steps
= node.ensure_read_steps(...)`` / ``if steps is not None: yield from
steps``).

Faulting discipline (stands in for mprotect/SIGSEGV at identical points):

* reading an *invalid* page triggers a read fault: diffs are requested from
  every writer with pending notices, applied in interval order, and the page
  becomes valid;
* writing a *clean* page triggers a write trap: a twin (a read-only
  snapshot of the page's bytes) is made and the page is marked dirty; a
  page that is still all zeros shares the one module-wide zero twin
  (:data:`ZERO_TWIN`) instead of a 4 KB copy of its own;
* writing an *invalid* page does both, fetch first.

Diffs are created lazily — only when another node requests them, or when a
write notice arrives for a locally dirty page (the modifications must be
preserved before invalidation).  After a diff is created the twin is
discarded and the page write-protected again (next write re-twins), exactly
as TreadMarks re-protects after diffing.

A bounded diff cache with epoch-based garbage collection keeps memory finite
on long runs; a fetch that needs a collected diff falls back to a full-page
transfer (TreadMarks behaves the same way after its GC).
"""

from __future__ import annotations

import mmap
from typing import TYPE_CHECKING, Optional

import numpy as np
# the fast-path mask checks are ``count_nonzero(mask[pages]) == pages.size``:
# one C call, where ``ndarray.all()`` runs numpy's Python-level reduction
# wrapper, about three times the cost on a few-page mask
from numpy import count_nonzero

from repro.sim.engine import HOLD
from repro.sim.machine import PAGE_SIZE
from repro.tmk.diffs import apply_diff, apply_diffs, make_diff
from repro.tmk.faststate import FastState
from repro.tmk.lrc import LrcNode, diff_request_nbytes
from repro.tmk.pagespace import ArrayHandle, SharedSpace, normalize_region

if TYPE_CHECKING:
    from repro.sim.cluster import ProcEnv
    from repro.tmk.api import TmkWorld

__all__ = ["TmkNode", "DiffRequest", "ZERO_TWIN",
           "TAG_TMK_REQ", "TAG_FETCH_REP", "TAG_BARRIER_DEP",
           "TAG_LOCK_GRANT", "TAG_FORK", "TAG_JOIN", "TAG_PUSH"]

# ---------------------------------------------------------------------- #
# tag space (application programs use tags < 1_000_000)
#
# Every tag below names a request/reply channel that assumes exactly-once,
# per-pair-FIFO delivery (a duplicated diff reply would patch a page twice;
# a reordered grant would break lock tenure).  The network provides both —
# natively on the perfect wire, via its reliable-delivery sublayer under
# an attached FaultPlan — so the protocol carries no sequence numbers.

TAG_TMK_REQ = 1_000_000      # all requests bound for a node's server
TAG_FETCH_REP = 1_000_001    # diff / page replies back to a faulting main
TAG_BARRIER_DEP = 1_000_002  # barrier departure, manager -> member
TAG_LOCK_GRANT = 1_100_000   # + lock id
TAG_FORK = 1_000_003         # fork-join: master -> worker (departure)
TAG_JOIN = 1_000_004         # fork-join: worker -> master (arrival)
TAG_PUSH = 1_000_005         # enhanced interface: pushed data at a release


_ZERO_PAGE = bytes(PAGE_SIZE)
ZERO_TWIN = np.frombuffer(_ZERO_PAGE, dtype=np.uint8)
"""The twin of every page that is all zeros at its write trap, shared by
every node and run.  A twin is only ever read (``make_diff`` compares the
live page against it), so one read-only zero page stands for them all;
``np.frombuffer`` over ``bytes`` cannot be written."""

_MADV_NOHUGEPAGE = getattr(mmap, "MADV_NOHUGEPAGE", None)


def _node_image(nbytes: int) -> np.ndarray:
    """A zero-filled, writable ``uint8`` image of ``nbytes`` bytes that is
    resident only in the 4 KB pages that have been touched.

    One private anonymous mapping, advised never to be backed by huge
    pages.  numpy advises its own buffers of 4 MB or more
    ``MADV_HUGEPAGE``, so where the host's THP mode is ``madvise`` one
    touched byte of an ``np.zeros`` image would make a whole 2 MB
    region resident; explicit advice keeps residency independent of that
    setting.  A zero-length mapping is refused (``EINVAL``), so an empty
    space maps one page and is sliced to length 0."""
    buf = mmap.mmap(-1, max(nbytes, PAGE_SIZE), flags=mmap.MAP_PRIVATE)
    if _MADV_NOHUGEPAGE is not None:
        buf.madvise(_MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=np.uint8)[:nbytes]


# ---------------------------------------------------------------------- #
# wire payloads

class DiffRequest:
    """A request for one page's diffs newer than ``from_id``, or for a
    ``batch`` of ``(page, from_id)`` pairs (enhanced interface)."""

    __slots__ = ("page", "from_id", "reply_to", "batch")

    def __init__(self, page: int, from_id: int, reply_to: int,
                 batch: Optional[list] = None) -> None:
        self.page = page
        self.from_id = from_id    # requester's applied watermark for the writer
        self.reply_to = reply_to
        self.batch = batch

    def nbytes(self) -> int:
        return diff_request_nbytes(
            None if self.batch is None else len(self.batch))


class TmkNode(LrcNode):
    """All DSM state and behaviour of one processor: the LRC core plus a
    real memory image, twins, fast-path masks, fetch/serve messaging and
    virtual-time charging."""

    def __init__(self, world: "TmkWorld", env: "ProcEnv"):
        super().__init__(env.pid, env.nprocs, world.space.npages, env.model,
                         world.dsm_stats, world.gc_epochs)
        self.world = world
        self.env = env
        self.proc = env.proc          # this node's main program
        self.net = env.net
        self.space: SharedSpace = world.space

        # the node's copy of the shared space, filled in page by page as
        # the node touches it (TreadMarks' per-processor copy).  Exact: it
        # holds the bytes a zeroed array would; only host residency differs
        self.mem = _node_image(self.space.nbytes)
        self.server_proc = None       # set by tmk.server.start_server
        self._barrier_gen = 0         # barriers this member has arrived at

        # coherence fast path: vectorized page masks + epoch-keyed region
        # verdicts (see repro.tmk.faststate).  Mask *maintenance* is
        # unconditional (the invariants are cheap to keep and always true);
        # only *consulting* the masks is gated on ``enabled``.
        self.fast = FastState(self.space.npages, enabled=world.fastpath)
        # the read mask is the core's ``valid`` column itself
        self.valid_mask = np.frombuffer(self.valid, dtype=bool)
        # ``write_ok`` hears of every state regression straight from the
        # core.  (A twin may be dropped on the node's *server* context while
        # main is blocked in a fetch mid-ensure_write: ``untwin_page`` keeps
        # the footprint's verdict from being remembered.)
        self._page_untwinned = self.fast.untwin_page
        self._page_invalidated = self.fast.invalidate_page
        self._interval_closed = self.fast.close_interval
        self._acquire_edge = self.fast.bump_epoch

        world.nodes[self.pid] = self

    # ------------------------------------------------------------------ #
    # views and metadata

    def view(self, handle: ArrayHandle) -> np.ndarray:
        """The node-local ndarray over ``handle``'s bytes (no coherence!)."""
        raw = self.mem[handle.offset:handle.offset + handle.nbytes]
        return raw.view(handle.dtype).reshape(handle.shape)

    def page_bytes(self, page: int) -> np.ndarray:
        off = page * PAGE_SIZE
        return self.mem[off:off + PAGE_SIZE]

    # ------------------------------------------------------------------ #
    # access hooks — the simulated page faults

    def ensure_read_steps(self, handle: ArrayHandle, region, source=None):
        """Validate every page of ``region`` before a read (read faults):
        ``None`` when all are valid, else the generator that faults the
        rest in.

        Fast path: between acquires ``valid`` bits never regress, so once a
        footprint has been verified this epoch (or its mask check passes) the
        per-page walk is skipped entirely.  Race-monitor reporting happens
        first either way — the fast path elides protocol work, never access
        events.
        """
        self._note_access(handle, False, source, region=region)
        nregion = normalize_region(region, handle.shape)
        fs = self.fast
        stats = self.world.dsm_stats
        if fs.enabled:
            vkey = (handle.name, nregion)
            if fs.read_verdicts.get(vkey) == fs.epoch:
                stats.fastpath_hits += 1
                return None
        pages, cached = handle.pages_of(nregion)
        if cached:
            stats.region_cache_hits += 1
        if fs.enabled:
            ok = self.valid_mask[pages]
            if count_nonzero(ok) == ok.size:
                stats.fastpath_hits += 1
                fs.remember_read(vkey)
                return None
            stats.fastpath_misses += 1
            # validity is monotone until the next acquire (invalidations
            # only happen in apply_records, on this same main context), so
            # after the faults the whole footprint is verifiably valid for
            # this epoch
            return self._read_faults(pages[~ok].tolist(), vkey)
        return self._read_faults(pages.tolist())

    def ensure_write_steps(self, handle: ArrayHandle, region, source=None):
        """Validate + twin every page of ``region`` before a write: ``None``
        when nothing is left to do, else the generator that does it.

        The write fast path must be more careful than the read one: while
        this node's main context is blocked in a fetch, its *server* context
        can serve a remote request and ``_diff_and_cache`` a page — dropping
        the twin and regressing ``write_ok`` mid-loop.  The miss path
        therefore re-checks every page's state live rather than iterating a
        stale ``flatnonzero`` snapshot.
        """
        self._note_access(handle, True, source, region=region)
        nregion = normalize_region(region, handle.shape)
        fs = self.fast
        stats = self.world.dsm_stats
        if fs.enabled:
            vkey = (handle.name, nregion)
            if fs.write_verdicts.get(vkey) == fs.write_gen:
                stats.fastpath_hits += 1
                return None
        pages, cached = handle.pages_of(nregion)
        if cached:
            stats.region_cache_hits += 1
        if fs.enabled:
            if count_nonzero(fs.write_ok_mask[pages]) == pages.size:
                stats.fastpath_hits += 1
                fs.remember_write(vkey)
                return None
            stats.fastpath_misses += 1
            return self._write_faults(pages, vkey)
        return self._write_faults(pages)

    def ensure_read_elements_steps(self, handle: ArrayHandle, flat_indices,
                                   elem_span: int = 1, source=None):
        self._note_access(handle, False, source, flat_indices=flat_indices,
                          elem_span=elem_span)
        pages = handle.element_pages(flat_indices, elem_span)
        fs = self.fast
        if fs.enabled:
            stats = self.world.dsm_stats
            ok = self.valid_mask[pages]
            if count_nonzero(ok) == ok.size:
                stats.fastpath_hits += 1
                return None
            stats.fastpath_misses += 1
            pages = pages[~ok]
        return self._read_faults(pages.tolist())

    def ensure_write_elements_steps(self, handle: ArrayHandle, flat_indices,
                                    elem_span: int = 1, source=None):
        self._note_access(handle, True, source, flat_indices=flat_indices,
                          elem_span=elem_span)
        pages = handle.element_pages(flat_indices, elem_span)
        fs = self.fast
        if fs.enabled:
            stats = self.world.dsm_stats
            if count_nonzero(fs.write_ok_mask[pages]) == pages.size:
                stats.fastpath_hits += 1
                return None
            stats.fastpath_misses += 1
        return self._write_faults(pages)

    def _read_faults(self, pages: list, vkey=None):
        for page in pages:
            yield from self._read_fault_if_needed(page)
        if vkey is not None:
            self.fast.remember_read(vkey)

    def _write_faults(self, pages: np.ndarray, vkey=None):
        """Walk a write footprint in page order.  A valid, twinned page
        owes no charge: it is noted in place (:meth:`LrcNode.note_write`,
        inline).  Only a page owing a fault or twin charge goes through
        :meth:`_write_fault_if_needed`, whose holds let this node's server
        run — and perhaps untwin a page this walk has already passed."""
        fs = self.fast
        ok = fs.write_ok
        valid, twins = self.valid, self.twins
        last, prev = self.last_written, self.prev_written
        # a close runs only on this (main) context, so the open interval
        # cannot change while the walk waits
        open_id = self.seen.v[self.pid] + 1
        # every page leaves the walk ``write_ok``; unless ``write_gen``
        # moved meanwhile, none of those bits can have regressed
        write_gen = fs.write_gen
        for page in pages.tolist():
            if valid[page] and page in twins:
                if last[page] != open_id:
                    prev[page] = last[page]
                    last[page] = open_id
                    self.open_pages.append(page)
                ok[page] = 1
            else:
                yield from self._write_fault_if_needed(page)
        if vkey is not None and (
                fs.write_gen == write_gen
                or count_nonzero(fs.write_ok_mask[pages]) == pages.size):
            fs.remember_write(vkey)

    def _note_access(self, handle: ArrayHandle, write: bool, source,
                     region=None, flat_indices=None, elem_span: int = 1) -> None:
        """Report the exact access footprint to an attached race monitor.

        Every coherent access — :class:`~repro.tmk.shared.SharedArray`
        methods, the compiler backends, the enhanced interface — funnels
        through one of the four ``ensure_*`` hooks above, so this is the
        single point where the detector observes the program."""
        mon = self.world.race_monitor
        if mon is None:
            return
        if flat_indices is not None:
            runs = handle.element_byte_runs(flat_indices, elem_span)
        else:
            runs = handle.region_byte_runs(region)
        mon.on_access(self.pid, handle, write=write, runs=runs, source=source)

    def _read_fault_if_needed(self, page: int):
        if self.valid[page]:
            return
        stats = self.world.dsm_stats
        stats.read_faults += 1
        yield HOLD, self.model.fault_overhead
        yield from self._fetch(page)

    def _write_fault_if_needed(self, page: int):
        stats = self.world.dsm_stats
        if not self.valid[page]:
            stats.read_faults += 1
            yield HOLD, self.model.fault_overhead
            yield from self._fetch(page)
        if page not in self.twins:
            stats.write_faults += 1
            stats.twins_created += 1
            yield HOLD, self.model.fault_overhead + self.model.twin_overhead
            image = self.page_bytes(page).tobytes()
            self.twins[page] = ZERO_TWIN if image == _ZERO_PAGE \
                else np.frombuffer(image, dtype=np.uint8)
        self.note_write(page)
        # valid + twinned + noted in the open interval: nothing left for a
        # repeat write access to do until a regression clears this bit
        self.fast.write_ok[page] = 1

    # ------------------------------------------------------------------ #
    # fetching (fault service, requester side)

    def _fetch(self, page: int):
        """Bring ``page`` up to date: one diff request per missing writer."""
        m = self.meta(page)
        missing = m.missing_writers()
        if not missing:  # notices raced with an aggregated fetch; revalidate
            self.valid[page] = 1
            return
        self.world.dsm_stats.fetches += 1
        for w, from_id in missing:
            req = DiffRequest(page, from_id, self.pid)
            yield from self.net.send_gen(self.pid, w, req, tag=TAG_TMK_REQ,
                                         nbytes=req.nbytes(),
                                         category="diff_req")
        replies = []
        for w, _from in missing:
            msg = yield from self.net.recv_gen(self.proc, self.pid, src=w,
                                               tag=TAG_FETCH_REP)
            replies.append((w, msg.payload[0][1]))
        yield from self._apply_replies(page, m, replies)
        self.valid[page] = 1

    # ------------------------------------------------------------------ #
    # serving (a generator of block requests, run by this node's server
    # process, which pays for the handler)

    def serve_diff_request(self, req: DiffRequest):
        yield HOLD, self.model.protocol_overhead
        asked = req.batch if req.batch is not None \
            else [(req.page, req.from_id)]
        # the reply: one (page, PageReply) per page asked for, in order
        rep = []
        for page, from_id in asked:
            # the server pays the diff-creation cost at the core's charge
            # point (after the cache is updated)
            if page in self.twins:
                yield HOLD, self._diff_and_cache(page)
            rep.append((page, self._gather(page, from_id)))
        yield from self.net.send_gen(
            self.pid, req.reply_to, rep, tag=TAG_FETCH_REP,
            nbytes=sum([self.reply_nbytes(part) for _page, part in rep]),
            category="diff_rep")

    # ------------------------------------------------------------------ #
    # LrcNode hooks: real bytes, charges as engine block requests

    def _encode_diff(self, page: int, twin):
        return make_diff(self.page_bytes(page), twin)

    @staticmethod
    def _diff_nbytes(diff) -> int:
        return diff.nbytes      # make_diff measured it from the run bounds

    def _page_image(self, page: int) -> bytes:
        return self.page_bytes(page).tobytes()

    def _charge(self, seconds: float):
        # whichever process runs the core's generator (this node's main
        # program, or its request server) yields the hold on
        return HOLD, seconds

    def _patch(self, page: int, diff) -> None:
        apply_diff(self.page_bytes(page), diff)

    def _install_page(self, page: int, image) -> None:
        dst = self.page_bytes(page)
        dst[:] = np.frombuffer(image, dtype=np.uint8)
        # re-apply our own preserved modifications (disjoint from any
        # concurrent writer's words in a race-free program)
        apply_diffs(dst, [entry.diff
                          for entry in self.diff_cache.get(page, [])])

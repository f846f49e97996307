"""The per-node lazy-release-consistency state machine, stated once.

Everything TreadMarks' lazy-invalidate protocol decides *per node*:
per-page coherence state, intervals and vector time, write noting,
lazy diff creation and the diff cache (``top``/``wm``/``okey`` rules,
same-interval extension, epoch GC with the full-page fallback), serving a
diff request, merging replies, the acquire side (notices,
diff-before-invalidate, the sticky multi-writer rule), the two-window
interval-record retention — and every message's wire size.

The module is IO-free: no simulator, network, clock or memory image.  Its
two users say what a page, a diff payload and time *are* through the hooks
at the bottom of :class:`LrcNode`: :class:`repro.tmk.protocol.TmkNode`
keeps real bytes (twins are page copies, diffs run lists, a charge is an
engine ``(HOLD, seconds)`` block request); :class:`repro.compiler.model.
_MNode` keeps sizes (twins are changed-word masks, a diff payload is its
``int`` wire size, a charge a float) — ``prev.diff + diff`` and ``if not
diff`` mean the same for both.

**Charge points.**  The core never blocks and never advances a clock.  The
methods that cost protocol time *inside* their loops — :meth:`LrcNode.
_apply_replies` after each patch, :meth:`LrcNode.apply_records` between
preserving a dirty page's diff and invalidating it — are generators that
yield each charge (:meth:`LrcNode._charge`) at the point, in the order and
with the value it is due; :meth:`LrcNode._diff_and_cache` returns its one
charge.  Whoever runs the action pays: a simulated process yields the
requests on (its clock advances *there*, and its node's request server may
run in between — which is why charges are never summed or deferred), the
model adds them to a float.
The message *choreography* of barriers, locks and fork-join is not here;
see docs/PROTOCOL.md, "Where the protocol lives".

**Page state is flat.**  What every page has — ``valid``, the twin,
``last_written`` and the ``last_written`` it replaced — lives in per-node
columns of length ``npages`` (``bytearray`` / ``array``, which a numpy view
can share: the simulator's fast-path mask *is* ``valid``).  Only the sparse,
writer-indexed ``pending``/``applied``/``sticky`` stay in a
:class:`PageMeta`, made for a page when first needed (mostly: when a
notice first names it).  A close stamps nothing: whether a page is written
in the open interval, the last closed interval that wrote it
(:meth:`LrcNode.claimable`) and that interval's merge key are all derived
from ``last_written``.  The walks that
run once per page per footprint or notice — :meth:`LrcNode.apply_records`
here, the write paths of the two users — touch the columns inline and call
out only for a page that owes a charge.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Any, NamedTuple, Optional

from repro.sim.machine import PAGE_SIZE
from repro.tmk.intervals import (IntervalRecord, SeenVector,
                                 notice_payload_nbytes)

if TYPE_CHECKING:
    from repro.sim.machine import MachineModel
    from repro.tmk.stats import DsmStats

__all__ = ["LrcNode", "PageMeta", "CacheEntry", "PageReply",
           "GC_EPOCHS", "CONTROL_BYTES", "diff_request_nbytes", "sync_nbytes",
           "lock_request_nbytes", "fork_nbytes"]


# ---------------------------------------------------------------------- #
# wire sizes, one function per message kind (a diff reply's size depends
# on the payload representation: see LrcNode.reply_nbytes)

CONTROL_BYTES = 64    # subroutine index + parameter block on a fork message

GC_EPOCHS = 8
"""Diff-cache bound of every run: a diff is collected that many barriers
after its creation, and a later request for it gets the whole page.  The
constructor's ``gc_epochs`` (``None`` disables GC) exists for tests."""


def diff_request_nbytes(batch_len: Optional[int] = None) -> int:
    """A diff request for one page, or an aggregated batch of
    ``batch_len`` (page, from_id) pairs (enhanced interface)."""
    return 24 if batch_len is None else 16 + 8 * batch_len


def sync_nbytes(records: list, model: "MachineModel") -> int:
    """A notice-carrying synchronization message: barrier arrival and
    departure, lock grant, join."""
    return 16 + notice_payload_nbytes(
        records, model.interval_header_bytes, model.write_notice_bytes)


def lock_request_nbytes(nprocs: int) -> int:
    """A lock request or forward: header plus the requester's vector time."""
    return 16 + 8 * nprocs


def fork_nbytes(records: list, model: "MachineModel") -> int:
    """A fork (one-to-all departure): control block plus write notices."""
    return CONTROL_BYTES + notice_payload_nbytes(
        records, model.interval_header_bytes, model.write_notice_bytes)


# ---------------------------------------------------------------------- #
# per-page state

class CacheEntry(NamedTuple):
    """A cached diff and its wire size — see
    :meth:`LrcNode._diff_and_cache`."""

    top: int
    wm: int
    okey: tuple
    diff: Any
    epoch: int
    nbytes: int


class PageMeta:
    """What one node knows of *other* writers of one page (sparse: most
    pages never hear of one)."""

    __slots__ = ("pending", "applied", "sticky")

    def __init__(self) -> None:
        # writer pid -> highest interval id named in a notice (needed)
        self.pending: dict[int, int] = {}
        # writer pid -> highest interval id whose content we hold
        self.applied: dict[int, int] = {}
        # multi-writer pages are exempt from diff GC (see DESIGN.md)
        self.sticky = False

    def missing_writers(self) -> list[tuple[int, int]]:
        """(writer, from_id) pairs whose content this node still lacks."""
        out = []
        for w, need in self.pending.items():
            have = self.applied.get(w, 0)
            if need > have:
                out.append((w, have))
        return out

    def catch_up(self) -> None:
        """Claim the content of every notice received as held
        (``applied <- max(applied, pending)`` for each pending writer)."""
        applied = self.applied
        for w, need in self.pending.items():
            if need > applied.get(w, 0):
                applied[w] = need


class PageReply(NamedTuple):
    """One writer's answer for one page: its cache entries newer than the
    requester's watermark, or (after GC) the whole page labelled with the
    newest interval it reflects and the sender's applied watermarks."""

    diffs: list                       # [CacheEntry] in top order
    full_page: Any = None
    full_label: int = 0
    full_applied: Optional[dict] = None


# ---------------------------------------------------------------------- #
# the state machine

class LrcNode:
    """All LRC protocol state and decisions of one processor."""

    def __init__(self, pid: int, nprocs: int, npages: int,
                 model: "MachineModel", stats: "DsmStats",
                 gc_epochs: Optional[int]):
        self.pid = pid
        self.nprocs = nprocs
        self.model = model
        self.stats = stats            # cluster-wide counters (shared)
        self.gc_epochs = gc_epochs

        # per-page columns (see the module docstring)
        self.valid = bytearray(b"\x01") * npages  # readable without a fault
        # page -> what it looked like at the first write since its last
        # diff (a page copy in the simulator, a changed-word mask in the
        # model); a page is dirty iff it has a twin
        self.twins: dict[int, Any] = {}
        # own interval id (open included) of the most recent local write,
        # and the value that write replaced (the last *closed* interval
        # that wrote the page, while it is written in the open one)
        self.last_written = array("q", bytes(8 * npages))
        self.prev_written = array("q", bytes(8 * npages))
        self._meta: dict[int, PageMeta] = {}

        # interval machinery
        self.seen = SeenVector(nprocs)            # seen[pid] == own closed count
        # pages written in the open interval, in first-write order: the
        # write notices of its record
        self.open_pages: list[int] = []
        # vtsums[i]: vtsum of own closed interval i (the merge key of its
        # writes is ``(vtsums[i], pid)``)
        self.vtsums = [0]
        # interval-record retention is two global-sync windows deep:
        # ``log_current`` holds records created/learned since the last
        # global synchronization (what a barrier arrival or join must
        # carry); ``log_prev`` holds the window before that.  Lock grants
        # serve from both — a grant can be computed after this node passed
        # a join/barrier while the requester is still inside the previous
        # window, and the records it needs must not have been discarded
        # (the receiver-side seen-vector filter makes re-sends harmless).
        self.log_current: list[IntervalRecord] = []
        self.log_prev: list[IntervalRecord] = []
        # diff cache: page -> [CacheEntry] in top order
        self.diff_cache: dict[int, list] = {}
        # page -> highest label ever garbage-collected; the cache is
        # continuous over (gc_floor, newest label]
        self.gc_floor: dict[int, int] = {}
        self.epoch = 0                            # barrier counter (GC clock)
        # epoch -> pages given a cache entry in it (GC visits only these)
        self._gc_due: dict[int, list] = {}

    def meta(self, page: int) -> PageMeta:
        m = self._meta.get(page)
        if m is None:
            m = PageMeta()
            self._meta[page] = m
        return m

    def note_write(self, page: int) -> None:
        """Record a write to ``page`` in the open interval.  (The users'
        write walks inline this for pages that owe no charge.)"""
        open_id = self.seen.v[self.pid] + 1
        last = self.last_written
        if last[page] != open_id:
            self.prev_written[page] = last[page]
            last[page] = open_id
            self.open_pages.append(page)

    def claimable(self, page: int) -> int:
        """The newest own interval a holder of ``page``'s current contents
        may claim to have applied: the last *closed* interval that wrote
        it (the open interval's writes may still grow)."""
        last = self.last_written[page]
        if last > self.seen.v[self.pid]:          # written in the open one
            return self.prev_written[page]
        return last

    # ------------------------------------------------------------------ #
    # diffs: lazy creation, the cache, serving

    def _diff_and_cache(self, page: int) -> float:
        """Compute and cache the diff for a dirty page; drop the twin.
        Returns the seconds the comparison costs, which the caller charges
        *after* this returns: charging may yield the processor, and this
        node's request server must never observe the page twinless *and*
        uncached (it would serve nothing).

        Cache entries carry two interval ids with different meanings:

        * ``top`` — the newest interval whose writes the entry *contains*
          (the open interval, if a request arrived mid-interval).  Serving
          filters on ``top`` so nothing available is withheld.
        * ``wm`` — the newest interval a requester may *claim* to hold
          after applying the entry: :meth:`claimable`.
          A mid-interval serve over-propagates the open writes (harmless
          for race-free programs), but the requester must not mark the
          open interval applied — the writer may still add to it, and the
          close's write notice has to trigger a re-fetch.

        The merge-order key is likewise the key the open interval's close
        would produce (growth only reorders concurrent, disjoint writes).
        """
        diff = self._encode_diff(page, self.twins.pop(page))
        self._page_untwinned(page)
        nbytes = self._diff_nbytes(diff)
        self.stats.diffs_created += 1
        self.stats.diff_bytes_created += nbytes
        self._cache_entry(page, diff, nbytes)
        return self.model.diff_create_time(PAGE_SIZE)

    def _cache_entry(self, page: int, diff, nbytes: int) -> None:
        if not diff:
            return
        top = self.last_written[page]
        wm = self.claimable(page)
        if top > self.seen.v[self.pid]:           # the open interval's key
            okey = (sum(self.seen.v) + 1, self.pid)
        else:
            okey = (self.vtsums[top] if top else sum(self.seen.v), self.pid)
        lst = self.diff_cache.setdefault(page, [])
        if lst and lst[-1].top >= top:
            # same-interval re-diff (a second request arrives mid-interval,
            # or the close follows a mid-interval serve): extend the entry —
            # apply order within it preserves later-wins on overlaps, and
            # the joined diff's size is the sum of the two
            prev = lst.pop()
            lst.append(CacheEntry(max(prev.top, top), max(prev.wm, wm),
                                  max(prev.okey, okey), prev.diff + diff,
                                  self.epoch, prev.nbytes + nbytes))
        else:
            lst.append(CacheEntry(top, wm, okey, diff, self.epoch, nbytes))
        if self.gc_epochs is not None:
            self._gc_due.setdefault(self.epoch, []).append(page)

    def _gather(self, page: int, from_id: int) -> PageReply:
        """This node's modifications to ``page`` newer than ``from_id``: a
        pure cache lookup — the server of a request diffs a dirty page
        first (:meth:`_diff_and_cache`, charged to whoever waits for it)."""
        cached = self.diff_cache.get(page, [])
        if from_id < self.gc_floor.get(page, 0):
            # content in (from_id, floor] was garbage-collected: fall back
            # to a whole-page transfer (as TreadMarks does after its GC)
            top = max([self.claimable(page)] + [e.top for e in cached])
            return PageReply([], self._page_image(page), top,
                             dict(self.meta(page).applied))
        return PageReply([e for e in cached if e.top > from_id])

    def reply_nbytes(self, reply: PageReply) -> int:
        """Wire size of one page's diff reply."""
        n = 16 + sum([e.nbytes for e in reply.diffs])
        if reply.full_page is not None:
            n += PAGE_SIZE
        return n

    def _apply_replies(self, page: int, m: PageMeta, replies):
        """Merge ``[(writer, PageReply)]`` into the local copy (generator of
        charges: one per patch, right after it).

        Full pages (GC fallback) are installed first — newest base wins —
        then diffs are patched in happens-before order via their
        ``(vtsum, proc)`` keys.
        """
        stats = self.stats
        base_applied: dict = {}
        fulls = [(w, rep) for w, rep in replies if rep.full_page is not None]
        if fulls:
            w, rep = max(fulls, key=lambda t: t[1].full_label)
            self._install_page(page, rep.full_page)
            base_applied = dict(rep.full_applied or {})
            base_applied[w] = max(base_applied.get(w, 0), rep.full_label)
            stats.full_page_fetches += 1
            for ww, reply in fulls:
                m.applied[ww] = max(m.applied.get(ww, 0),
                                    reply.full_label, m.pending.get(ww, 0))
        patches = []
        for w, rep in replies:
            for top, wm, okey, diff, _epoch, nbytes in rep.diffs:
                if top <= base_applied.get(w, 0):
                    # already reflected in the full page we installed
                    m.applied[w] = max(m.applied.get(w, 0), wm)
                    continue
                patches.append((okey, w, wm, diff, nbytes))
        for _okey, w, wm, diff, nbytes in self._merge_order(patches):
            self._patch(page, diff)
            yield self._charge(self.model.diff_apply_time(nbytes))
            stats.diffs_applied += 1
            stats.diff_bytes_applied += nbytes
            # claim only through the writer's last *closed* interval: a
            # mid-interval serve's open writes may still grow, and the
            # close notice must be able to trigger a re-fetch
            m.applied[w] = max(m.applied.get(w, 0), wm)
        # anything still "missing" was answered with content newer than
        # the notices (cumulative diffs) or an empty diff; trust the
        # notices' watermarks
        m.catch_up()

    # ------------------------------------------------------------------ #
    # interval machinery

    def close_interval(self) -> Optional[IntervalRecord]:
        """End the open interval (at a release); record its writes.  No
        page is touched: advancing ``seen[pid]`` is what closes them."""
        if not self.open_pages:
            return None
        self._interval_closed()
        new_id = self.seen[self.pid] + 1
        self.seen.v[self.pid] = new_id
        vtsum = sum(self.seen.v)
        self.vtsums.append(vtsum)
        rec = IntervalRecord(proc=self.pid, id=new_id,
                             pages=tuple(sorted(self.open_pages)),
                             vtsum=vtsum)
        self.open_pages = []
        self.log_current.append(rec)
        return rec

    @property
    def retained_log(self) -> list:
        """All interval records still retained (for lock grants)."""
        return self.log_prev + self.log_current

    def prune_log(self) -> None:
        """Advance the retention window at a global synchronization.

        The window just closed becomes ``log_prev`` (still served to lock
        grants); the one before it is discarded — by then every processor
        has passed the intervening global sync and learned those records.
        """
        self.log_prev = self.log_current
        self.log_current = []

    def apply_records(self, records: list, log: bool = True):
        """Acquire-side: learn records, invalidate named pages (generator of
        charges: a dirty page named by a notice is diffed, and the diff paid
        for, before the page is invalidated).

        ``log=True`` retains the records for forwarding on later lock grants
        (needed for lock-chain transitivity).  Barrier departures pass
        ``log=False``: the manager has distributed those records to everyone
        already, so re-forwarding them would only duplicate traffic.
        """
        # this is the acquire edge: the one place ``valid`` bits can regress
        self._acquire_edge()
        self.stats.epoch_bumps += 1
        pid, metas, valid, twins = self.pid, self._meta, self.valid, self.twins
        last = self.last_written
        # page never written here -> the one remote writer the batch names
        first_writer: dict[int, int] = {}
        for rec in records:
            if not self.seen.observe(rec):
                continue
            if log:
                self.log_current.append(rec)
            w, interval_id = rec.proc, rec.id
            if w == pid:
                continue
            for page in rec.pages:
                m = metas.get(page)
                if m is None:
                    m = metas[page] = PageMeta()
                # sticky: a remote writer of a page written here too, or a
                # second remote writer in one batch (an own notice needs no
                # look: a page it names has been written here)
                if last[page] or first_writer.setdefault(page, w) != w:
                    m.sticky = True
                if interval_id > m.pending.get(w, 0):
                    m.pending[w] = interval_id
                # already lost, or content already held (cumulative diff
                # over-propagation): nothing to do.  (Only a valid page can
                # be dirty: a write fetches first, an invalidation diffs.)
                if not valid[page] or interval_id <= m.applied.get(w, 0):
                    continue
                if page in twins:
                    # preserve our modifications before losing the right
                    # to the page
                    yield self._charge(self._diff_and_cache(page))
                self._invalidate(page, w, interval_id)

    def _invalidate(self, page: int, writer: int, interval_id: int) -> None:
        """Lose the right to valid ``page``: ``writer``'s interval
        ``interval_id`` wrote it."""
        self.valid[page] = 0
        self._page_invalidated(page)
        self.stats.invalidations += 1

    # ------------------------------------------------------------------ #
    # epoch / GC (called at barrier departure)

    def advance_epoch(self) -> None:
        self.epoch += 1
        if self.gc_epochs is None:
            return
        cutoff = self.epoch - self.gc_epochs
        # entries made at epoch ``cutoff - 1`` just fell due; older ones
        # fell due at earlier calls, newer ones are not due yet
        for page in self._gc_due.pop(cutoff - 1, ()):
            lst = self.diff_cache.get(page)
            m = self._meta.get(page)
            if lst is None or (m is not None and m.sticky):
                continue
            kept = [e for e in lst if e.epoch >= cutoff]
            if len(kept) == len(lst):
                continue              # extended since: due again later
            dropped_top = max(e.top for e in lst if e.epoch < cutoff)
            self.gc_floor[page] = max(self.gc_floor.get(page, 0),
                                      dropped_top)
            if kept:
                self.diff_cache[page] = kept
            else:
                del self.diff_cache[page]

    # ------------------------------------------------------------------ #
    # hooks — everything a user of the core must or may say about its own
    # representation of pages, payloads and time

    def _encode_diff(self, page: int, twin):
        """The diff payload of dirty ``page`` against ``twin``."""
        raise NotImplementedError

    def _diff_nbytes(self, diff) -> int:
        """Wire size of a payload :meth:`_encode_diff` returned (asked
        once per diff: the cache entry keeps it)."""
        raise NotImplementedError

    def _page_image(self, page: int):
        """The whole-page payload of the GC fallback (never ``None``)."""
        raise NotImplementedError

    def _charge(self, seconds: float):
        """What a generator of this node's protocol work yields to bill
        ``seconds`` to whoever is running it (default: the seconds)."""
        return seconds

    def _merge_order(self, patches: list) -> list:
        """``(okey, writer, wm, diff, nbytes)`` patches in the order to
        apply them: happens-before, i.e. by ``okey`` (only payloads that
        commute may keep the request order)."""
        return sorted(patches, key=lambda t: t[0])

    def _patch(self, page: int, diff) -> None:
        """Apply a received diff payload to the local copy of ``page``."""

    def _install_page(self, page: int, image) -> None:
        """Replace the local copy of ``page`` with a received whole page."""

    def _page_untwinned(self, page: int) -> None:
        """``page`` just lost its twin (a diff was created)."""

    def _page_invalidated(self, page: int) -> None:
        """``page`` just became invalid (a write notice arrived)."""

    def _interval_closed(self) -> None:
        """The open interval is ending (a release with writes)."""

    def _acquire_edge(self) -> None:
        """Records are about to be applied (``valid`` bits may regress)."""

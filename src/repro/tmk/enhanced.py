"""Enhanced compiler–DSM interface (Dwarkadas, Cox & Zwaenepoel, ASPLOS'96).

Section 8 of the paper credits three hand-applied optimizations to this
interface and shows they could be automated: *aggregating* data
communication, *merging* synchronization and data, and *pushing* data
instead of the DSM's default request–response.  The evaluation's
"Results of Hand Optimizations" paragraphs (Sections 5.1–5.4) all use them.

* :func:`validate_steps` — aggregated fetch: bring a whole region up to date with
  **one** request/reply round-trip per writer instead of one per page, and
  without per-page fault overhead (requests are issued before the access).
  This is the "data aggregation" fix for Jacobi, Shallow and 3-D FFT.
* :class:`PushPayload` / :func:`push_regions_gen` — at a release, send one's
  modifications of the pages under a region directly to the consumers
  (whole-page diffs, i.e. eager rather than lazy propagation).
* :class:`BcastPayload` — full page images of a region from a processor
  that holds its current contents (MGS's ith-vector broadcast), piggybacked
  on the fork message: this merges synchronization and data.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.sim.engine import HOLD
from repro.sim.machine import PAGE_SIZE
from repro.tmk.diffs import apply_diff
from repro.tmk.pagespace import ArrayHandle
from repro.tmk.protocol import (TAG_FETCH_REP, TAG_PUSH, TAG_TMK_REQ,
                                DiffRequest, TmkNode)

__all__ = ["PushPayload", "BcastPayload", "validate_steps",
           "push_regions_gen", "expect_pushes_gen"]

# Every operation below is one generator of engine block requests (``*_gen``;
# ``validate_steps`` returns ``None`` when nothing needs fetching), which a
# program delegates to with ``yield from``.


def validate_steps(node: TmkNode, handle: ArrayHandle, region=None,
                   source=None):
    """Aggregated fetch of every invalid page under ``region``: ``None``
    when all are current, else the generator that fetches the rest.

    Equivalent in outcome to faulting each page one at a time, but with one
    round-trip per *writer* (all that writer's needed pages batched) and no
    per-page fault traps.
    """
    if region is not None:
        node._note_access(handle, False, source, region=region)
        pages = handle.region_pages(region)
    else:
        node._note_access(handle, False, source,
                          region=tuple(slice(None) for _ in handle.shape))
        pages = np.asarray(list(handle.pages()))
    if node.fast.enabled:
        # mask-True pages are guaranteed valid; only the rest need a look
        pages = pages[~node.valid_mask[pages]]
    by_writer: dict[int, list] = {}
    metas = {}
    for page in pages.tolist():
        if node.valid[page]:
            continue
        metas[page] = m = node.meta(page)
        for w, from_id in m.missing_writers():
            by_writer.setdefault(w, []).append((page, from_id))
    if not metas:
        return None
    return _fetch_batched(node, metas, by_writer)


def _fetch_batched(node: TmkNode, metas: dict, by_writer: dict):
    node.world.dsm_stats.aggregated_validates += 1
    for w, batch in sorted(by_writer.items()):
        req = DiffRequest(0, 0, node.pid, batch)
        yield from node.net.send_gen(node.pid, w, req, tag=TAG_TMK_REQ,
                                     nbytes=req.nbytes(),
                                     category="diff_req")
    replies_by_page: dict[int, list] = {p: [] for p in metas}
    for w in sorted(by_writer):
        msg = yield from node.net.recv_gen(node.proc, node.pid, src=w,
                                           tag=TAG_FETCH_REP)
        for page, part in msg.payload:
            replies_by_page[page].append((w, part))
    for page, m in metas.items():
        yield from node._apply_replies(page, m, replies_by_page[page])
        node.valid[page] = 1


# ---------------------------------------------------------------------- #
# push: eager propagation of one's own modifications at a release point

def push_regions_gen(node: TmkNode, regions: Sequence, dests: Iterable[int]):
    """Send this node's modifications of the pages under ``regions`` to
    ``dests``, ahead of (instead of) their demand fetches.

    Must be called at a release point *before* the synchronization that
    would otherwise invalidate the consumers (the barrier/fork still runs;
    consumers simply find the pages already current).  Pushes whole-page
    diffs, so receivers hold exactly what a demand fetch would have built.
    Every destination gets a message, empty when nothing under ``regions``
    changed: consumers count pushes per edge (``expect_pushes_gen``).
    """
    payload = yield from PushPayload.build_gen(node, regions)
    if payload is None:
        payload = PushPayload(node.pid, [], 16)
    mon = node.world.race_monitor
    snap = mon.release(node.pid) if mon is not None else None
    for dst in dests:
        if dst == node.pid:
            continue
        yield from node.net.send_gen(node.pid, dst, payload, tag=TAG_PUSH,
                                     nbytes=payload.nbytes_on_wire,
                                     category="data")
        if mon is not None:
            mon.channel_put(node.pid, dst, "push", snap)
        node.world.dsm_stats.pushes += 1


def expect_pushes_gen(node: TmkNode, count: int):
    """Blockingly install exactly ``count`` pushed messages."""
    mon = node.world.race_monitor
    for _ in range(count):
        msg = yield from node.net.recv_gen(node.proc, node.pid, tag=TAG_PUSH)
        yield from msg.payload.install_gen(node)
        if mon is not None:
            mon.channel_acquire(node.pid, msg.src, "push")


class PushPayload:
    """Diffs of the sender's dirty pages under some regions.

    Also serves as the fork-message piggyback payload ("merging
    synchronization and data"): :meth:`install_gen` applies the diffs and
    advances the receiver's applied watermarks so the accompanying write
    notices do not re-invalidate the pages.
    """

    def __init__(self, sender: int, entries: list, nbytes_on_wire: int):
        self.sender = sender
        self.entries = entries      # [(page, top, wm, okey, diff, nbytes)]
        self.nbytes_on_wire = nbytes_on_wire

    @staticmethod
    def build_gen(node: TmkNode, regions: Sequence):
        """Build from the sender's current modifications -> ``PushPayload |
        None``.

        Pushing is an (eager) release of the sender's writes, so the open
        interval is closed here: the entries' watermarks then cover it and
        the accompanying synchronization's write notices do not
        re-invalidate the receivers.  The release/fork that follows simply
        finds the interval already closed.
        """
        node.close_interval()
        entries = []
        total = 16
        seen_pages = set()
        for handle, region in regions:
            for page in handle.region_pages(region).tolist():
                if page in seen_pages:
                    continue
                seen_pages.add(page)
                if page in node.twins:
                    yield HOLD, node._diff_and_cache(page)
                cached = node.diff_cache.get(page, [])
                if not cached:
                    continue
                entry = cached[-1]
                entries.append((page, entry.top, entry.wm, entry.okey,
                                entry.diff, entry.nbytes))
                total += entry.nbytes + 16
        if not entries:
            return None
        return PushPayload(node.pid, entries, total)

    def install_gen(self, node: TmkNode):
        model = node.model
        for page, top, wm, okey, diff, nbytes in self.entries:
            m = node.meta(page)
            if top <= m.applied.get(self.sender, 0):
                continue
            if any(w != self.sender for w, _f in m.missing_writers()):
                # content from other writers with possibly *older* intervals
                # is still outstanding; applying this (newer) diff first
                # would let the later demand fetch regress its words.  Drop
                # the push — the demand path merges everything in order.
                continue
            if page in node.twins:
                yield HOLD, node._diff_and_cache(page)
            apply_diff(node.page_bytes(page), diff)
            yield HOLD, model.diff_apply_time(nbytes)
            node.world.dsm_stats.diffs_applied += 1
            node.world.dsm_stats.diff_bytes_applied += nbytes
            m.applied[self.sender] = max(m.applied.get(self.sender, 0), wm)
            if not m.missing_writers():
                node.valid[page] = 1


class BcastPayload:
    """Full page images from a holder of the *current* contents.

    The sync+data merge the paper applies to MGS: the master, having just
    normalized the ith vector (and therefore holding the complete newest
    page), attaches the page images to the fork message; receivers install
    them and mark every pending notice satisfied — no faults, no separate
    broadcast messages.  Unlike :class:`PushPayload` (diffs of the sender's
    own writes), an image subsumes all writers, so ordering is moot.
    """

    def __init__(self, sender: int, images: list, nbytes_on_wire: int):
        self.sender = sender
        self.images = images      # [(page, bytes, applied, wm)]
        self.nbytes_on_wire = nbytes_on_wire

    @staticmethod
    def build_gen(node: TmkNode, regions: Sequence):
        """-> ``BcastPayload | None``"""
        node.close_interval()
        images = []
        nbytes = 16
        for handle, region in regions:
            for page in handle.region_pages(region).tolist():
                m = node.meta(page)
                if m.missing_writers():
                    raise RuntimeError(
                        f"BcastPayload from a stale holder (page {page}); "
                        f"the sender must fault the region in first")
                if page in node.twins:
                    yield HOLD, node._diff_and_cache(page)
                images.append((page, node.page_bytes(page).tobytes(),
                               dict(m.applied), node.claimable(page)))
                nbytes += PAGE_SIZE + 16
        if not images:
            return None
        return BcastPayload(node.pid, images, nbytes)

    def install_gen(self, node: TmkNode):
        model = node.model
        for page, image, sender_applied, wm in self.images:
            m = node.meta(page)
            if page in node.twins:
                yield HOLD, node._diff_and_cache(page)
            node.page_bytes(page)[:] = np.frombuffer(image, dtype=np.uint8)
            yield HOLD, model.diff_apply_time(len(image))
            for w, lbl in sender_applied.items():
                m.applied[w] = max(m.applied.get(w, 0), lbl)
            m.applied[self.sender] = max(m.applied.get(self.sender, 0), wm)
            m.catch_up()
            node.valid[page] = 1
            node.world.dsm_stats.pushes += 1

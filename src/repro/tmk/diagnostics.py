"""Protocol diagnostics: turn a trace into performance findings.

The paper attributes the DSM's losses to specific mechanisms — false
sharing, lack of data aggregation, separation of synchronization and data.
Given a :class:`~repro.tmk.trace.ProtocolTrace`, these helpers locate those
mechanisms in an actual run:

* :func:`false_sharing_report` — pages written by several processors
  within one barrier epoch (the multiple-writer protocol's work-list),
* :func:`hot_pages` — the pages that cause the most fetch round-trips,
  with the processors involved (aggregation candidates),
* :func:`fault_summary` — per-processor fault/fetch/invalidations totals.

    result = tmk_run(8, program, setup, trace=True)
    print(false_sharing_report(result.trace))
    print(hot_pages(result.trace, top=5))
"""

from __future__ import annotations

from collections import Counter, defaultdict

from repro.tmk.trace import ProtocolTrace

__all__ = ["false_sharing_report", "hot_pages", "fault_summary",
           "find_false_sharing", "fastpath_summary"]


def fastpath_summary(stats) -> str:
    """Format the coherence fast path's counters (see tmk.faststate).

    ``stats`` is a :class:`~repro.tmk.stats.DsmStats`.  These are
    wall-clock observability numbers only — the fast path never changes
    simulated behaviour — so a low hit rate flags overhead, not a bug.
    """
    total = stats.fastpath_hits + stats.fastpath_misses
    if total == 0:
        return ("fast path: inactive (no ensure_* calls, or "
                "TmkWorld.fastpath is off)")
    rate = stats.fastpath_hits / total
    return (f"fast path: {stats.fastpath_hits}/{total} ensure_* calls "
            f"served by the mask/verdict caches ({rate:.1%} hit rate); "
            f"{stats.region_cache_hits} region->pages memo hits; "
            f"{stats.epoch_bumps} acquire-edge epoch bumps")


def _epochs(trace: ProtocolTrace):
    """Split the event stream at barrier completions (per-processor view:
    a barrier event on any processor advances that processor's epoch)."""
    epoch_of = defaultdict(int)
    for ev in trace.events:
        if ev.kind == "barrier":
            epoch_of[ev.pid] += 1
        yield epoch_of[ev.pid], ev


def find_false_sharing(trace: ProtocolTrace) -> dict:
    """``{page: {epoch: sorted writer pids}}`` for multi-writer epochs."""
    writers: dict = defaultdict(lambda: defaultdict(set))
    for epoch, ev in _epochs(trace):
        if ev.kind == "twin" or (ev.kind == "fault"
                                 and ev.detail.get("mode") == "write"):
            writers[ev.page][epoch].add(ev.pid)
    out: dict = {}
    for page, by_epoch in writers.items():
        multi = {epoch: sorted(pids) for epoch, pids in by_epoch.items()
                 if len(pids) > 1}
        if multi:
            out[page] = multi
    return out


def false_sharing_report(trace: ProtocolTrace, limit: int = 10) -> str:
    shared = find_false_sharing(trace)
    if not shared:
        return ("no false sharing detected: every page had a single "
                "writer per epoch")
    lines = [f"false sharing on {len(shared)} page(s) "
             f"(multiple writers within one epoch):"]
    ranked = sorted(shared.items(),
                    key=lambda kv: -sum(len(p) for p in kv[1].values()))
    for page, by_epoch in ranked[:limit]:
        epochs = len(by_epoch)
        worst = max(by_epoch.items(), key=lambda kv: len(kv[1]))
        lines.append(f"  page {page}: {epochs} multi-writer epoch(s); "
                     f"e.g. epoch {worst[0]} written by {worst[1]}")
    if len(ranked) > limit:
        lines.append(f"  ... and {len(ranked) - limit} more pages")
    return "\n".join(lines)


def hot_pages(trace: ProtocolTrace, top: int = 10) -> str:
    """The pages behind the most fetch round-trips (aggregation targets)."""
    fetches = Counter(ev.page for ev in trace.query(kind="fetch"))
    if not fetches:
        return "no remote fetches occurred"
    lines = [f"hottest pages by fetch round-trips "
             f"(total {sum(fetches.values())} fetches):"]
    for page, count in fetches.most_common(top):
        readers = sorted({ev.pid for ev in trace.query(kind="fetch",
                                                       page=page)})
        lines.append(f"  page {page}: {count} fetches by processors "
                     f"{readers}")
    return "\n".join(lines)


def fault_summary(trace: ProtocolTrace) -> str:
    """Per-processor protocol event totals."""
    rows: dict = defaultdict(Counter)
    for ev in trace.events:
        rows[ev.pid][ev.kind] += 1
    kinds = ["fault", "fetch", "twin", "invalidate", "diff-create",
             "barrier"]
    header = "proc " + " ".join(f"{k:>11s}" for k in kinds)
    lines = [header]
    for pid in sorted(rows):
        lines.append(f"p{pid:<4d}" + " ".join(
            f"{rows[pid].get(k, 0):11d}" for k in kinds))
    return "\n".join(lines)

"""Vector-clock happens-before race detection for the DSM protocol.

The paper's argument rests on lazy release consistency being *correct for
race-free programs*: multiple-writer diffs merge to the sequential result
only when every pair of conflicting accesses is ordered by synchronization.
This module checks exactly that property over a run.

A :class:`RaceMonitor` attaches to a :class:`~repro.tmk.api.TmkWorld`
before the cluster starts (``tmk_run(racecheck=True)`` does it at the
right moment) and observes two event streams:

* **accesses** — every coherent access funnels through the four
  ``TmkNode.ensure_*`` hooks (``SharedArray`` methods, the SPF backend,
  the enhanced interface all call them), which report the accessing
  processor, the exact byte footprint, read/write, and an IR source tag;
* **synchronization** — every happens-before edge rides the message
  that makes it.  The sender takes :meth:`RaceMonitor.release` and puts
  the snapshot on the payload (barrier arrival and departure, lock grant,
  fork and join, both tree-reduction messages, a halo push), outside the
  message's counted bytes, and the receiver passes it to
  :meth:`~RaceMonitor.merge` where it applies the message's records.
  The monitor pairs no messages itself: the network already delivered
  the right one.

The monitor maintains one vector clock per processor (FastTrack-style:
own component starts at 1 and increments at every release; acquires merge
the matching release's snapshot).  Each access is stamped with its
processor's current clock.  Two accesses *a*, *b* on different processors
are ordered iff ``a.clock[a.pid] <= b.clock[a.pid]`` (or symmetrically) —
i.e. the later processor observed the release that followed the earlier
access.  Note the protocol's own ``seen`` vectors cannot serve as these
clocks: a processor that writes nothing closes no intervals, so its
barriers are invisible in ``seen`` — the monitor's clocks tick at every
release regardless.

:func:`find_races` then classifies every unordered conflicting pair
(different processors, at least one write, same page):

* **true race** — the word-aligned byte footprints overlap; the
  multiple-writer merge is order-dependent and the program is broken;
* **false sharing** — same page, disjoint words; benign for correctness
  (the diffs commute) but a protocol-traffic hazard worth reporting.

Word granularity matches :mod:`repro.tmk.diffs` (``WORD = 4``): diffs are
encoded in words, so two writers of different bytes in one word *do*
conflict.

The schedule fuzzer lives in :mod:`repro.sim.engine`
(``Simulator(schedule_seed=...)``); ``python -m repro racecheck`` drives
both together across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.sim.machine import PAGE_SIZE
from repro.tmk.diffs import WORD

__all__ = ["RaceMonitor", "attach_race_monitor", "AccessEvent",
           "RaceFinding", "RaceCheckResult", "find_races"]

#: access events a monitor records before it counts the rest as dropped
CAPACITY = 500_000

#: findings of each kind a verdict lists (the counts stay exact)
MAX_REPORT = 64


@dataclass
class AccessEvent:
    """One (possibly merged) application access to shared memory.

    Accesses by the same processor with the same source tag, direction and
    vector clock are merged — between two synchronization operations a
    processor's clock is constant, and for race purposes only the union of
    its footprint matters.
    """

    pid: int
    array: str
    write: bool
    source: str
    clock: tuple
    time: float
    run_lists: list = field(default_factory=list)   # [(k, 2) byte intervals]
    count: int = 0

    @property
    def rw(self) -> str:
        return "W" if self.write else "R"

    def runs(self) -> np.ndarray:
        """All byte intervals, merged and sorted."""
        return _merge_runs(self.run_lists)

    def epoch(self) -> int:
        return self.clock[self.pid]


def _merge_runs(run_lists: list) -> np.ndarray:
    if not run_lists:
        return np.empty((0, 2), dtype=np.int64)
    if len(run_lists) == 1:
        return run_lists[0]
    allruns = np.concatenate(run_lists, axis=0)
    order = np.argsort(allruns[:, 0], kind="stable")
    allruns = allruns[order]
    out = []
    cur_lo, cur_hi = int(allruns[0, 0]), int(allruns[0, 1])
    for lo, hi in allruns[1:]:
        if lo <= cur_hi:
            cur_hi = max(cur_hi, int(hi))
        else:
            out.append((cur_lo, cur_hi))
            cur_lo, cur_hi = int(lo), int(hi)
    out.append((cur_lo, cur_hi))
    return np.asarray(out, dtype=np.int64)


@dataclass
class RaceFinding:
    """One conflicting unordered access pair (deduplicated per source pair)."""

    kind: str                 # "true-race" | "false-sharing"
    array: str
    page: int
    pid_a: int
    source_a: str
    rw_a: str
    pid_b: int
    source_b: str
    rw_b: str
    overlap: Optional[tuple] = None     # (start, stop) global byte range
    count: int = 1                      # distinct unordered pairs collapsed

    def describe(self, lookup: Optional[Callable[[str], str]] = None) -> str:
        """``lookup`` maps source tags to IR-level descriptions — a dict
        (e.g. :func:`repro.compiler.report.source_lookup`) or callable."""
        def side(pid, src, rw):
            extra = ""
            if lookup is not None:
                desc = (lookup.get(src) if hasattr(lookup, "get")
                        else lookup(src))
                if desc:
                    extra = f" ({desc})"
            return f"p{pid} {rw} {src}{extra}"
        where = f"array {self.array!r} page {self.page}"
        if self.overlap is not None:
            where += f" bytes [{self.overlap[0]}, {self.overlap[1]})"
        tag = "TRUE RACE" if self.kind == "true-race" else "false sharing"
        return (f"{tag}: {side(self.pid_a, self.source_a, self.rw_a)} x "
                f"{side(self.pid_b, self.source_b, self.rw_b)} on {where}"
                + (f" [{self.count} pairs]" if self.count > 1 else ""))


@dataclass
class RaceCheckResult:
    """Detector verdict for one run."""

    true_races: list
    false_sharing: list
    n_events: int
    n_dropped: int

    @property
    def ok(self) -> bool:
        return not self.true_races

    def format(self, lookup: Optional[Callable[[str], str]] = None) -> str:
        lines = [f"racecheck: {len(self.true_races)} true race(s), "
                 f"{len(self.false_sharing)} false-sharing pair(s) over "
                 f"{self.n_events} access events"
                 + (f" ({self.n_dropped} dropped)" if self.n_dropped else "")]
        for f in self.true_races:
            lines.append("  " + f.describe(lookup))
        for f in self.false_sharing:
            lines.append("  " + f.describe(lookup))
        return "\n".join(lines)


class RaceMonitor:
    """Owns the vector clocks and the access log.

    Synchronization reaches it only as :meth:`release` (the sender's
    snapshot, carried by the message) and :meth:`merge` (at the receiver).
    All hooks run on simulated processes, and the engine runs exactly one
    at a time, so no locking is needed.
    """

    def __init__(self, world):
        self.world = world
        self.nprocs = world.nprocs
        # FastTrack-style clocks: own component starts at 1 so that two
        # processors' pre-synchronization accesses compare as concurrent.
        self.clocks = [[0] * self.nprocs for _ in range(self.nprocs)]
        for p in range(self.nprocs):
            self.clocks[p][p] = 1
        self.events: list[AccessEvent] = []
        self._index: dict[tuple, AccessEvent] = {}
        self.n_dropped = 0

    # ------------------------------------------------------------------ #
    # clock primitives

    def snapshot(self, pid: int) -> tuple:
        return tuple(self.clocks[pid])

    def release(self, pid: int) -> tuple:
        """Snapshot this processor's clock, then tick its own component."""
        snap = self.snapshot(pid)
        self.clocks[pid][pid] += 1
        return snap

    def merge(self, pid: int, snap: Optional[tuple]) -> None:
        if snap is None:
            return
        row = self.clocks[pid]
        for q, v in enumerate(snap):
            if v > row[q]:
                row[q] = v

    # ------------------------------------------------------------------ #
    # access stream

    def on_access(self, pid: int, handle, write: bool, runs: np.ndarray,
                  source: Optional[str]) -> None:
        if runs.shape[0] == 0:
            return
        src = source if source is not None else handle.name
        clock = self.snapshot(pid)
        key = (pid, handle.name, write, src, clock)
        ev = self._index.get(key)
        if ev is None:
            if len(self.events) >= CAPACITY:
                self.n_dropped += 1
                return
            ev = AccessEvent(pid=pid, array=handle.name, write=write,
                             source=src, clock=clock, time=self._now(pid))
            self.events.append(ev)
            self._index[key] = ev
        ev.run_lists.append(runs)
        ev.count += 1

    def _now(self, pid: int) -> float:
        node = self.world.nodes.get(pid)
        return node.env.now if node is not None else 0.0

    # ------------------------------------------------------------------ #

    def finish(self) -> RaceCheckResult:
        """Run the detector over everything observed so far."""
        space = getattr(self.world, "space", None)
        return find_races(self.events, space=space, n_dropped=self.n_dropped)


def attach_race_monitor(world) -> RaceMonitor:
    """Instrument ``world`` (must precede the cluster run).  ``tmk_run``
    detaches it again (``world.race_monitor = None``) when the run ends; the
    monitor keeps its ``world``, so a result never holds a cycle."""
    mon = RaceMonitor(world)
    world.race_monitor = mon
    return mon


# ---------------------------------------------------------------------- #
# detection

def _word_align(runs: np.ndarray) -> np.ndarray:
    """Widen byte intervals to diff granularity (WORD-aligned)."""
    out = runs.copy()
    out[:, 0] = (out[:, 0] // WORD) * WORD
    out[:, 1] = ((out[:, 1] + WORD - 1) // WORD) * WORD
    return out


def _first_overlap(a: np.ndarray, b: np.ndarray) -> Optional[tuple]:
    """First intersecting ``[start, stop)`` of two sorted interval lists."""
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i, 0], b[j, 0])
        hi = min(a[i, 1], b[j, 1])
        if lo < hi:
            return (int(lo), int(hi))
        if a[i, 1] <= b[j, 1]:
            i += 1
        else:
            j += 1
    return None


def _ordered(a: AccessEvent, b: AccessEvent) -> bool:
    """Happens-before in either direction."""
    return (a.clock[a.pid] <= b.clock[a.pid]
            or b.clock[b.pid] <= a.clock[b.pid])


def _page_names(space) -> dict:
    names: dict[int, str] = {}
    if space is None:
        return names
    for handle in space.handles():
        for page in handle.pages():
            prev = names.get(page)
            names[page] = f"{prev}|{handle.name}" if prev else handle.name
    return names


def find_races(events: list, space=None,
               n_dropped: int = 0) -> RaceCheckResult:
    """Classify every unordered conflicting access pair.

    ``events`` are :class:`AccessEvent` objects stamped with vector
    clocks.  Conflicts are checked page by page (that is the protocol's
    coherence unit); unordered conflicting pairs are split into true
    races (word-aligned footprints overlap) and false sharing (same page,
    disjoint words).  Findings are deduplicated per
    (array, pid/source/direction pair) with a pair count.
    """
    per_page: dict[int, list] = {}
    aligned: dict[int, np.ndarray] = {}
    for idx, ev in enumerate(events):
        runs = _word_align(ev.runs())
        aligned[idx] = runs
        pages = set()
        for lo, hi in runs:
            pages.update(range(int(lo) // PAGE_SIZE,
                               (int(hi) - 1) // PAGE_SIZE + 1))
        for page in pages:
            per_page.setdefault(page, []).append(idx)

    names = _page_names(space)
    findings: dict[tuple, RaceFinding] = {}
    for page, idxs in sorted(per_page.items()):
        pids = {events[i].pid for i in idxs}
        if len(pids) < 2:
            continue
        page_lo, page_hi = page * PAGE_SIZE, (page + 1) * PAGE_SIZE
        for x in range(len(idxs)):
            a = events[idxs[x]]
            for y in range(x + 1, len(idxs)):
                b = events[idxs[y]]
                if a.pid == b.pid or not (a.write or b.write):
                    continue
                if _ordered(a, b):
                    continue
                ra, rb = aligned[idxs[x]], aligned[idxs[y]]
                overlap = _first_overlap(ra, rb)
                if overlap is not None and not (overlap[0] < page_hi
                                                and overlap[1] > page_lo):
                    # the overlap lies on another page; report it there
                    continue
                kind = "true-race" if overlap is not None else "false-sharing"
                array = names.get(page) or a.array
                # canonical side order for dedup
                sa = (a.pid, a.source, a.rw)
                sb = (b.pid, b.source, b.rw)
                if sb < sa:
                    sa, sb = sb, sa
                key = (kind, array, sa, sb)
                f = findings.get(key)
                if f is None:
                    findings[key] = RaceFinding(
                        kind=kind, array=array, page=page,
                        pid_a=sa[0], source_a=sa[1], rw_a=sa[2],
                        pid_b=sb[0], source_b=sb[1], rw_b=sb[2],
                        overlap=overlap)
                else:
                    f.count += 1
    true_races = [f for f in findings.values() if f.kind == "true-race"]
    false_sharing = [f for f in findings.values()
                     if f.kind == "false-sharing"]
    return RaceCheckResult(true_races=true_races[:MAX_REPORT],
                           false_sharing=false_sharing[:MAX_REPORT],
                           n_events=len(events), n_dropped=n_dropped)

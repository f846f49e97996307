"""Intervals, vector times, and write notices for lazy release consistency.

Execution of each processor is divided into *intervals*, delimited by its
synchronization operations.  An :class:`IntervalRecord` names the pages a
processor wrote during one of its intervals — one *write notice* per page.
A processor's knowledge of the global computation is its *seen vector*
``seen[p] = highest interval id of processor p it knows about``; interval
records always propagate in per-processor id order, so a vector of maxima is
a faithful vector timestamp.

At an acquire (barrier departure, lock grant, fork receipt) a processor
receives every interval record the releaser knows that it does not, and
invalidates its copies of the pages named — the "lazy invalidate" protocol
of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

__all__ = ["IntervalRecord", "SeenVector", "records_unknown_to",
           "notice_payload_nbytes"]


@dataclass(frozen=True)
class IntervalRecord:
    """Write notices for one closed interval of one processor.

    ``vtsum`` is the sum of the closing vector time.  For two intervals a, b
    with a happens-before b, ``vt_a <= vt_b`` componentwise and they differ,
    so ``vtsum_a < vtsum_b``: sorting modifications by ``(vtsum, proc)`` is a
    linear extension of happens-before, which is the order in which diffs
    must be merged (concurrent diffs touch disjoint words in race-free
    programs, so their relative order is immaterial).
    """

    proc: int
    id: int                 # per-processor interval counter, 1-based
    pages: tuple            # sorted page numbers written during the interval
    vtsum: int = 0          # sum of the closing vector time (merge order key)
    # runs of consecutive pages in ``pages`` (the notice's wire size),
    # counted once when the record is built: a record is sent many times
    runs: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.id < 1:
            raise ValueError("interval ids are 1-based")
        object.__setattr__(self, "runs", page_runs(self.pages))


class SeenVector:
    """``seen[p]`` = highest interval id of processor ``p`` this node knows."""

    __slots__ = ("v",)

    def __init__(self, nprocs: int):
        self.v = [0] * nprocs

    def copy(self) -> "SeenVector":
        out = SeenVector(len(self.v))
        out.v = list(self.v)
        return out

    def __getitem__(self, p: int) -> int:
        return self.v[p]

    def observe(self, rec: IntervalRecord) -> bool:
        """Advance for ``rec``; return True if the record was new.

        Records for a processor must arrive in id order (gaps indicate a
        protocol bug and raise).
        """
        cur = self.v[rec.proc]
        if rec.id <= cur:
            return False
        if rec.id != cur + 1:
            raise RuntimeError(
                f"interval gap for proc {rec.proc}: have {cur}, got {rec.id}")
        self.v[rec.proc] = rec.id
        return True

    def as_tuple(self) -> tuple:
        return tuple(self.v)

    def __repr__(self) -> str:
        return f"SeenVector({self.v})"


def records_unknown_to(log: Iterable[IntervalRecord],
                       seen: "SeenVector") -> list[IntervalRecord]:
    """Records from ``log`` with ids beyond ``seen``, in (proc, id) order.

    Sorting by id per processor preserves the in-order delivery invariant
    that :meth:`SeenVector.observe` checks.
    """
    out = [r for r in log if r.id > seen[r.proc]]
    out.sort(key=lambda r: (r.proc, r.id))
    return out


def page_runs(pages: tuple) -> int:
    """Number of maximal runs of consecutive page ids in a sorted tuple."""
    if not pages:
        return 0
    runs = 1
    for a, b in zip(pages, pages[1:]):
        if b != a + 1:
            runs += 1
    return runs


def notice_payload_nbytes(records: list, header_bytes: int,
                          notice_bytes: int) -> int:
    """Wire size of a batch of interval records.

    Write notices are encoded as runs of consecutive pages (a block
    partition's whole write set is one run), which is what keeps barrier
    traffic small in TreadMarks — e.g. the paper's Table 2 shows only 862 KB
    total data for hand-coded Jacobi across 16,800 messages.
    """
    return sum(header_bytes + notice_bytes * r.runs for r in records)

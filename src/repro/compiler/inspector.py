"""Inspector–executor communication schedules (the CHAOS comparison).

Section 1 of the paper: "Compilers generating message passing code for
irregular accesses are either inefficient or quite complex (e.g., the
inspector-executor model [Saltz et al.])" — and Section 8 cites the
comparisons of TreadMarks against the CHAOS inspector-executor runtime
(Mukherjee et al. [14]; Lu et al. [12] found them comparable once the DSM
got simple compiler support).

This module adds that "quite complex" alternative to the XHPF backend
(``compile_xhpf(..., inspector_executor=True)``, the ``xhpf_ie``
variant), which otherwise broadcasts everything for irregular loops:

* **inspector** (first execution of an irregular loop): every processor
  evaluates the loop's run-time footprint, determines which *owned rows of
  other processors* it reads, and exchanges request lists pairwise — the
  communication *schedule*;
* **executor** (every execution): owners send exactly the requested rows
  to each requester before the loop; accumulation buffers are returned
  exactly to the owners of the touched rows afterwards (no broadcasts);
* the schedule is cached per loop and reused while the access pattern is
  static (IGrid's map and NBF's partner lists never change; a changed
  footprint fingerprint triggers re-inspection).

``benchmarks/test_ext_inspector.py`` reproduces the cited result: the
inspector-executor brings compiler-generated message passing back to
DSM-class performance on the irregular applications.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["CommSchedule", "ScheduleCache", "inspect_reads"]


@dataclass
class CommSchedule:
    """A pairwise gather/scatter plan for one irregular loop.

    ``recv_rows[p]``: rows this processor needs from owner ``p`` before the
    loop.  ``send_rows[p]``: rows this processor must send to requester
    ``p`` (the transpose, learned during inspection).
    ``return_rows[p]`` / ``accept_rows[p]``: accumulation contributions
    flowing back to row owners after the loop.
    """

    fingerprint: int
    recv_rows: dict = field(default_factory=dict)
    send_rows: dict = field(default_factory=dict)
    return_rows: dict = field(default_factory=dict)
    accept_rows: dict = field(default_factory=dict)


class ScheduleCache:
    """Per-processor, per-run cache: loop name -> its one CommSchedule.  A
    changed fingerprint replaces the schedule, so a footprint that returns
    to an earlier pattern is inspected again."""

    def __init__(self) -> None:
        self.schedules: dict[str, CommSchedule] = {}
        self.inspections = 0
        self.reuses = 0

    def lookup(self, name: str, fingerprint: int) -> Optional[CommSchedule]:
        sched = self.schedules.get(name)
        if sched is not None and sched.fingerprint == fingerprint:
            self.reuses += 1
            return sched
        return None

    def store(self, name: str, sched: CommSchedule) -> None:
        self.inspections += 1
        self.schedules[name] = sched


def _rows_of_elements(flat: np.ndarray, row_elems: int) -> np.ndarray:
    return np.unique(np.asarray(flat, dtype=np.int64) // row_elems)


def footprint_fingerprint(flat: np.ndarray) -> int:
    """A cheap stable fingerprint of an access pattern (re-inspection
    trigger).  Collisions only cost correctness if the pattern changes
    while the fingerprint does not AND the program relies on the new
    pattern's rows — the classic inspector-executor staleness contract."""
    arr = np.asarray(flat, dtype=np.int64)
    return int(arr.size) ^ int(arr.sum() % (1 << 61)) \
        ^ int((arr[:64] * 31).sum() % (1 << 61) if arr.size else 0)


def inspect_reads(flat: np.ndarray, row_elems: int, owned: tuple,
                  owner_bounds: list) -> dict:
    """Rows read outside the local partition, grouped by owning processor.

    ``owner_bounds`` is the list of (lo, hi) row ranges per processor.
    """
    rows = _rows_of_elements(flat, row_elems)
    out: dict = {}
    lo, hi = owned
    foreign = rows[(rows < lo) | (rows >= hi)]
    for pid, (plo, phi) in enumerate(owner_bounds):
        if phi <= plo:
            continue
        mine = foreign[(foreign >= plo) & (foreign < phi)]
        if mine.size:
            out[pid] = mine
    return out

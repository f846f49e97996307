"""TreadMarks-style software distributed shared memory.

This package re-implements the DSM substrate of the paper (TreadMarks
0.10.1, Amza et al. [2]) over the simulated cluster:

* lazy invalidate release consistency with vector timestamps, intervals and
  write notices (:mod:`repro.tmk.intervals`; the per-node state machine is
  :mod:`repro.tmk.lrc`, its simulator half :mod:`repro.tmk.protocol`),
* the multiple-writer protocol with twins and run-length-encoded diffs
  computed from real page contents (:mod:`repro.tmk.diffs`),
* page-granularity access detection (:mod:`repro.tmk.pagespace`,
  :mod:`repro.tmk.shared`) — explicit region hooks stand in for
  mprotect/SIGSEGV, at identical page granularity,
* centralized-manager barriers and statically-managed locks
  (:mod:`repro.tmk.sync`),
* the fork-join compiler interface of Section 2.3, in both the original
  (8(n-1) messages per parallel loop) and improved (2(n-1)) forms
  (:mod:`repro.tmk.forkjoin`),
* the enhanced interface of Dwarkadas et al. [7] — aggregated validate,
  push, and broadcast — used by the hand-optimization experiments
  (:mod:`repro.tmk.enhanced`).

Entry point: :class:`repro.tmk.api.Tmk` (one per simulated processor) and
:func:`repro.tmk.api.tmk_run`.
"""

from repro.tmk.pagespace import SharedSpace, ArrayHandle
from repro.tmk.diffs import make_diff, apply_diff, diff_nbytes
from repro.tmk.api import Tmk, TmkWorld, tmk_run
from repro.tmk.stats import DsmStats
from repro.tmk.reduction import tmk_reduce_gen

__all__ = [
    "SharedSpace",
    "ArrayHandle",
    "make_diff",
    "apply_diff",
    "diff_nbytes",
    "Tmk",
    "TmkWorld",
    "tmk_run",
    "DsmStats",
    "tmk_reduce_gen",
]

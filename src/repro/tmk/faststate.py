"""Per-node coherence fast-path state: vectorized page masks + epoch caches.

Every ``SharedArray`` access funnels through the four ``TmkNode.ensure_*``
hooks.  In the common case — every touched page already valid (reads) or
already twinned and write-noted in the open interval (writes) — those hooks
take no protocol action at all, yet the seed implementation still paid a
Python-level loop over every touched page with a dict lookup each.  Real
TreadMarks only traps on the *first* access after a synchronization point;
this module restores that asymptotic behaviour for the simulation's
wall-clock cost (virtual time is untouched: the fast path elides Python
work, never protocol actions).

Two layers, both exact:

**Page masks**: numpy boolean vectors over the whole shared space, each a
view of a per-node ``bytearray`` column, so per-page code reads and writes
the buffer and vector code the view — one memory, no paired writes.  A
``True`` bit is a *guarantee* that the slow path would no-op on that page:

* ``TmkNode.valid_mask[p]`` (the LRC core's ``valid`` column,
  :mod:`repro.tmk.lrc`) — a read fault cannot trigger;
* ``FastState.write_ok_mask[p]`` (its ``write_ok`` column) — page valid
  **and** twinned **and** already noted in the current open interval
  (``last_written`` is the open interval's id) — a write trap cannot
  trigger and no state update is pending.

A ``False`` bit promises nothing; the slow path re-checks the real state
(and sets ``write_ok`` back on).  ``write_ok`` bits are therefore *cleared
eagerly at every state regression* and set lazily by the slow path.  The
regressions happen inside the protocol core, which reports each through a
``TmkNode`` hook:

* ``valid`` clears only in ``LrcNode._invalidate`` (an acquire's write
  notice; hook ``_page_invalidated`` clears ``write_ok`` with it);
* ``write_ok`` additionally clears in ``LrcNode._diff_and_cache`` (hook
  ``_page_untwinned``: the twin is discarded — possibly from the node's
  *server* context, mid-epoch, when a remote fetch forces a diff of a
  locally dirty page) and wholesale at ``close_interval`` (hook
  ``_interval_closed``: the open interval ends, so "already noted"
  expires).

**Epoch-keyed region verdicts**: between acquires, ``valid`` bits cannot
regress, and between {acquire, release, diff-creation} events ``write_ok``
bits cannot regress.  Each node therefore carries an ``epoch`` counter
(bumped at every acquire edge — ``apply_records``, hook ``_acquire_edge``:
barrier departure, lock acquire, fork/join receive, reduction, exactly the
edges the race monitor instruments) and a
``write_gen`` counter (bumped at those plus every ``close_interval`` and
``_diff_and_cache``).  A region whose mask check passed is remembered as
``region -> counter``; while the counter is unchanged the next identical
footprint (every time-loop iteration) skips even the page math — one dict
probe and an integer compare.

``enabled=False`` (a world whose ``TmkWorld.fastpath`` is ``False``, a
test seam) makes every access walk the per-page slow path; the equivalence
regression test runs both ways and asserts bit-identical virtual times,
traffic and memory images.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FastState"]

_REGION_VERDICT_LIMIT = 4096   # per-node cap on remembered footprints


class FastState:
    """One node's fast-path masks, counters and region-verdict caches."""

    __slots__ = ("enabled", "write_ok", "write_ok_mask", "epoch",
                 "write_gen", "read_verdicts", "write_verdicts")

    def __init__(self, npages: int, enabled: bool = True):
        self.enabled = enabled
        self.write_ok = bytearray(npages)
        self.write_ok_mask = np.frombuffer(self.write_ok, dtype=bool)
        self.epoch = 0
        self.write_gen = 0
        # (handle name, ((lo, hi), ...) region) -> counter value at verification
        self.read_verdicts: dict = {}
        self.write_verdicts: dict = {}

    # ---- regression events (called from the protocol slow path) -------- #

    def bump_epoch(self) -> None:
        """An acquire edge: ``valid`` bits may have regressed."""
        self.epoch += 1
        self.write_gen += 1
        if self.read_verdicts:
            self.read_verdicts.clear()
        if self.write_verdicts:
            self.write_verdicts.clear()

    def bump_write_gen(self) -> None:
        """A release or twin discard: ``write_ok`` bits may have regressed."""
        self.write_gen += 1
        if self.write_verdicts:
            self.write_verdicts.clear()

    def invalidate_page(self, page: int) -> None:
        self.write_ok[page] = 0

    def untwin_page(self, page: int) -> None:
        self.write_ok[page] = 0
        self.bump_write_gen()

    def close_interval(self) -> None:
        self.write_ok_mask.fill(False)
        self.bump_write_gen()

    # ---- verdict caches ------------------------------------------------ #

    def remember_read(self, key) -> None:
        if len(self.read_verdicts) >= _REGION_VERDICT_LIMIT:
            self.read_verdicts.clear()
        self.read_verdicts[key] = self.epoch

    def remember_write(self, key) -> None:
        if len(self.write_verdicts) >= _REGION_VERDICT_LIMIT:
            self.write_verdicts.clear()
        self.write_verdicts[key] = self.write_gen

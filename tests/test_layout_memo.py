"""The process-wide page-geometry memo (``repro.tmk.pagespace.LAYOUT_MEMO``)
is pure and bounded.

It sits under every handle's own region -> pages memo and keeps the page
math of a layout from one run to the next.  Nothing a run reports may
depend on what it holds: every ``sim_sync`` key and every ``serve_mix``
key of the performance benchmark (read from ``benchmarks/perf/
workloads.py``, not restated) must give the same ``fingerprint()`` —
events, DSM counters such as ``region_cache_hits``, signatures — whether
the memo was warmed by other keys or empty, and whether or not it had to
start over at its bound.
"""

import os
import sys

import numpy as np
import pytest

from repro.api import ProgramCache, execute
from repro.sim.machine import PAGE_SIZE
from repro.tmk import pagespace
from repro.tmk.pagespace import LAYOUT_MEMO, SharedSpace

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks", "perf"))

from workloads import SERVE_MIX, SIM_SYNC  # noqa: E402

KEYS = list(dict.fromkeys(SIM_SYNC.keys + SERVE_MIX.keys))


def _identities(keys, clear_before_each: bool) -> dict:
    """key id -> (fingerprint, signature), each run through a fresh
    program cache so no compiled program carries state between passes."""
    cache = ProgramCache()
    out = {}
    for key in keys:
        if clear_before_each:
            LAYOUT_MEMO.clear()
        result = execute(key.request(), cache)
        assert result.ok, (key.id, result.error)
        out[key.id] = (result.fingerprint(), result.signature)
    return out


@pytest.fixture
def empty_memo():
    LAYOUT_MEMO.clear()
    yield
    LAYOUT_MEMO.clear()


def test_the_keys_are_the_benchmarks():
    assert len(KEYS) == 65
    assert set(SIM_SYNC.keys) <= set(KEYS)


def test_warmed_and_empty_memo_give_identical_runs(empty_memo):
    # one pass with the memo kept: every key after the first finds the
    # geometry the keys before it left; then each key from empty
    warmed = _identities(KEYS, clear_before_each=False)
    assert LAYOUT_MEMO.entries
    empty = _identities(KEYS, clear_before_each=True)
    assert warmed == empty


def test_memo_stays_within_its_bound_and_runs_do_not_change(
        empty_memo, monkeypatch):
    keys = SIM_SYNC.keys
    reference = _identities(keys, clear_before_each=True)
    bound = 48                    # far below what the four keys ask for
    monkeypatch.setattr(pagespace, "_LAYOUT_MEMO_PAGES", bound)
    held, restarts = [], []
    memo = type(LAYOUT_MEMO)
    put, clear = memo.put, memo.clear

    def checked_put(self, key, pages):
        put(self, key, pages)
        held.append(self.pages)
        assert self.pages == sum(p.size + 1 for p in self.entries.values())

    def counted_clear(self):
        restarts.append(self.pages)
        clear(self)

    monkeypatch.setattr(memo, "put", checked_put)
    monkeypatch.setattr(memo, "clear", counted_clear)
    assert _identities(keys, clear_before_each=False) == reference
    assert held and max(held) <= bound
    assert restarts                # the bound was reached, and held


def test_real_bound_holds_for_large_regions(empty_memo):
    """With the shipped bound: regions of a third of it each force a
    restart on the third, and one larger than the bound is never kept."""
    limit = pagespace._LAYOUT_MEMO_PAGES
    per_row = limit // 3
    space = SharedSpace()
    handle = space.alloc("big", (4, per_row * PAGE_SIZE // 8), np.float64)
    for row in range(4):
        pages = handle.region_pages((row,))
        assert pages.size == per_row
        assert 0 < LAYOUT_MEMO.pages <= limit
    assert len(LAYOUT_MEMO.entries) == 2          # rows 0-1, then 2-3
    whole = space.alloc("whole", (limit * PAGE_SIZE // 8,), np.float64)
    LAYOUT_MEMO.clear()
    assert whole.region_pages((slice(None),)).size == limit
    assert not LAYOUT_MEMO.entries and LAYOUT_MEMO.pages == 0


def test_memo_answers_a_new_handle_of_the_same_layout(empty_memo):
    """Two runs allocate equal layouts as distinct handles: the second
    handle's first ask is a miss of its own memo (counted as such by the
    protocol) answered from the layout memo with the very same array."""
    def handle():
        space = SharedSpace()
        space.alloc("pad", (3,), np.float32)
        return space.alloc("a", (64, 1024), np.float32)

    first, second = handle(), handle()
    region = ((8, 24), (0, 1024))
    pages, hit = first.pages_of(region)
    assert not hit
    again, hit = second.pages_of(region)
    assert not hit and again is pages
    again, hit = second.pages_of(region)
    assert hit and again is pages
    assert not pages.flags.writeable

"""Unit tests for interval records and vector times (repro.tmk.intervals)."""

import random

import pytest

from repro.sim.machine import SP2_MODEL
from repro.tmk.intervals import (IntervalRecord, SeenVector,
                                 notice_payload_nbytes, page_runs,
                                 records_unknown_to)
from repro.tmk.lrc import LrcNode
from repro.tmk.stats import DsmStats


def rec(proc, id_, pages=(0,), vtsum=0):
    return IntervalRecord(proc=proc, id=id_, pages=tuple(pages), vtsum=vtsum)


def test_interval_ids_one_based():
    with pytest.raises(ValueError):
        rec(0, 0)


def test_seen_observe_in_order():
    sv = SeenVector(4)
    assert sv.observe(rec(1, 1))
    assert sv.observe(rec(1, 2))
    assert sv[1] == 2
    assert sv[0] == 0


def test_seen_observe_duplicate_is_noop():
    sv = SeenVector(4)
    assert sv.observe(rec(2, 1))
    assert not sv.observe(rec(2, 1))
    assert sv[2] == 1


def test_seen_observe_gap_raises():
    sv = SeenVector(4)
    with pytest.raises(RuntimeError):
        sv.observe(rec(0, 2))


def test_records_unknown_to_filters_and_orders():
    sv = SeenVector(3)
    sv.v = [1, 0, 2]
    log = [rec(0, 1), rec(0, 2), rec(1, 1), rec(2, 3), rec(2, 2)]
    out = records_unknown_to(log, sv)
    assert [(r.proc, r.id) for r in out] == [(0, 2), (1, 1), (2, 3)]


def test_records_unknown_to_sorted_per_proc():
    sv = SeenVector(2)
    log = [rec(0, 3), rec(0, 1), rec(0, 2)]
    out = records_unknown_to(log, sv)
    assert [r.id for r in out] == [1, 2, 3]


def test_page_runs_counts_maximal_runs():
    assert page_runs(()) == 0
    assert page_runs((5,)) == 1
    assert page_runs((1, 2, 3)) == 1
    assert page_runs((1, 2, 4, 5, 9)) == 3


def test_notice_payload_run_length_encoding():
    """A block partition's write set is one run — barrier payloads stay
    small (why the paper's Table 2 data totals are tiny for TreadMarks)."""
    contiguous = rec(0, 1, pages=tuple(range(100)))
    scattered = rec(0, 1, pages=tuple(range(0, 200, 2)))
    small = notice_payload_nbytes([contiguous], 16, 8)
    large = notice_payload_nbytes([scattered], 16, 8)
    assert small == 16 + 8
    assert large == 16 + 8 * 100
    assert notice_payload_nbytes([], 16, 8) == 0


def test_vtsum_orders_happens_before():
    """a happens-before b => vtsum(a) < vtsum(b): the merge-order key."""
    # a closes with seen [1,0]; b (proc 1) observed a before closing
    a_close = SeenVector(2)
    a_close.observe(rec(0, 1))
    a = rec(0, 1, vtsum=sum(a_close.v))
    b_close = SeenVector(2)
    for r in (rec(0, 1), rec(1, 1)):
        b_close.observe(r)
    b = rec(1, 1, vtsum=sum(b_close.v))
    assert a.vtsum < b.vtsum


@pytest.mark.parametrize("seed", range(8))
def test_stored_run_count_matches_page_runs(seed):
    """The count a record stores when built is what ``page_runs`` says,
    and the notice wire size is computed from it."""
    rng = random.Random(seed)
    records = []
    for id_ in range(1, 6):
        npages = rng.choice([1, 2, 50, 6000])
        pages = tuple(sorted(rng.sample(range(2 * npages + 8), npages)))
        records.append(rec(seed % 3, id_, pages))
    for r in records:
        assert r.runs == page_runs(r.pages)
    assert notice_payload_nbytes(records, 16, 8) == sum(
        16 + 8 * page_runs(r.pages) for r in records)


def test_run_count_of_a_record_built_directly():
    r = IntervalRecord(2, 1, (0, 1, 2, 7, 9, 10), 3)
    assert r.runs == 3 == page_runs(r.pages)
    assert r == IntervalRecord(2, 1, (0, 1, 2, 7, 9, 10), 3)
    assert "runs" not in repr(r)


def test_run_count_of_a_closed_interval():
    node = LrcNode(0, 2, 64, SP2_MODEL, DsmStats(), None)
    for page in (9, 3, 4, 5, 40, 41, 10):
        node.note_write(page)
    r = node.close_interval()
    assert r.pages == (3, 4, 5, 9, 10, 40, 41)
    assert r.runs == 3 == page_runs(r.pages)

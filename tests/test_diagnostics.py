"""Tests for the trace-based diagnostics (repro.tmk.diagnostics)."""

import numpy as np

from repro.tmk.api import tmk_run
from repro.tmk.diagnostics import (fault_summary, false_sharing_report,
                                   find_false_sharing, hot_pages)


def setup(space):
    space.alloc("x", (4, 1024), np.float32)    # 4 pages, one row each
    space.alloc("packed", (16, 256), np.float32)  # 4 rows per page


def test_no_false_sharing_on_page_aligned_partitions():
    def prog(tmk):
        x = tmk.array("x")
        # own page only
        yield from x.write_gen((slice(tmk.pid, tmk.pid + 1),), 1.0)
        yield from tmk.barrier_gen()

    r = tmk_run(4, prog, setup, trace=True)
    assert find_false_sharing(r.trace) == {}
    assert "no false sharing" in false_sharing_report(r.trace)


def test_false_sharing_detected_on_packed_rows():
    def prog(tmk):
        packed = tmk.array("packed")
        # all four processors write different rows of the same first page
        yield from packed.write_gen((slice(tmk.pid, tmk.pid + 1),), float(tmk.pid))
        yield from tmk.barrier_gen()

    r = tmk_run(4, prog, setup, trace=True)
    shared = find_false_sharing(r.trace)
    assert len(shared) == 1
    (page, by_epoch), = shared.items()
    assert sorted(next(iter(by_epoch.values()))) == [0, 1, 2, 3]
    report = false_sharing_report(r.trace)
    assert f"page {page}" in report


def test_hot_pages_ranks_by_fetches():
    def prog(tmk):
        x = tmk.array("x")
        if tmk.pid == 0:
            yield from x.write_gen((slice(0, 1),), 1.0)
        yield from tmk.barrier_gen()
        for _ in range(3):                      # page 0 fetched repeatedly
            if tmk.pid != 0:
                yield from x.read_gen((0, 0))
            yield from tmk.barrier_gen()
            if tmk.pid == 0:
                yield from x.write_gen((0, 0), float(tmk.now))
            yield from tmk.barrier_gen()

    r = tmk_run(3, prog, setup, trace=True)
    report = hot_pages(r.trace, top=2)
    assert "page 0" in report
    assert "fetches" in report


def test_hot_pages_empty_run():
    def prog(tmk):
        yield from tmk.barrier_gen()

    r = tmk_run(2, prog, setup, trace=True)
    assert hot_pages(r.trace) == "no remote fetches occurred"


def test_fault_summary_tabulates_per_processor():
    def prog(tmk):
        x = tmk.array("x")
        if tmk.pid == 0:
            yield from x.write_gen((slice(0, 4),), 2.0)
        yield from tmk.barrier_gen()
        if tmk.pid == 1:
            yield from x.read_gen()

    r = tmk_run(2, prog, setup, trace=True)
    table = fault_summary(r.trace)
    assert "p0" in table and "p1" in table
    assert "fetch" in table and "barrier" in table
    # p1 fetched all four pages of x
    p1_line = [l for l in table.splitlines() if l.startswith("p1")][0]
    assert " 4 " in p1_line or p1_line.split()[2] == "4"

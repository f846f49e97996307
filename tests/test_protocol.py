"""Integration tests for the lazy-invalidate RC protocol (repro.tmk.protocol).

These run small programs through the full DSM (real pages, real diffs) and
assert both data values and protocol-event behaviour.
"""

import numpy as np
import pytest

from repro.tmk.api import tmk_run


def setup_two_pages(space):
    space.alloc("x", (2, 1024), np.float32)   # 2 pages, one row each
    space.alloc("y", (4, 1024), np.float32)


def test_initially_all_pages_valid_zero():
    def prog(tmk):
        x = tmk.array("x")
        assert float(x.read().sum()) == 0.0
        return True

    r = tmk_run(3, prog, setup_two_pages)
    assert all(r.results)
    assert r.stats.messages == 0   # no communication for cold zeros


def test_single_writer_propagates_through_barrier():
    def prog(tmk):
        x = tmk.array("x")
        if tmk.pid == 0:
            x.write((slice(0, 1),), 42.0)
        tmk.barrier()
        return float(x.read((0, 5)))

    r = tmk_run(4, prog, setup_two_pages)
    assert r.results == [42.0] * 4


def test_unread_pages_never_fetch_diffs():
    """Laziness: modifications that nobody reads generate no data traffic."""

    def prog(tmk):
        y = tmk.array("y")
        lo, hi = tmk.block_range(4)
        if hi > lo:
            y.write((slice(lo, hi),), float(tmk.pid + 1))
        tmk.barrier()
        # nobody reads anyone else's rows
        return float(y.read((slice(lo, hi),)).sum()) if hi > lo else 0.0

    r = tmk_run(4, prog, setup_two_pages)
    assert r.dsm_stats.diffs_created == 0
    assert r.dsm_stats.read_faults == 0
    assert r.stats.by_category.get("diff_req", [0, 0])[0] == 0


def test_read_fault_fetches_exactly_touched_pages():
    def prog(tmk):
        y = tmk.array("y")
        if tmk.pid == 0:
            y.write((slice(0, 4),), 3.0)   # all four pages
        tmk.barrier()
        if tmk.pid == 1:
            y.read((slice(2, 3),))          # only page 2
        return None

    r = tmk_run(2, prog, setup_two_pages)
    assert r.dsm_stats.read_faults == 1
    assert r.dsm_stats.fetches == 1
    assert r.stats.by_category["diff_req"][0] == 1


def test_write_fault_on_invalid_page_fetches_first():
    """Writing part of an invalid page must merge the remote content."""

    def prog(tmk):
        x = tmk.array("x")
        if tmk.pid == 0:
            x.write((slice(0, 1),), 7.0)
        tmk.barrier()
        if tmk.pid == 1:
            x.write((0, slice(0, 4)), 9.0)   # partial write
            row = x.read((slice(0, 1),))[0]
            assert row[0] == 9.0 and row[4] == 7.0
        tmk.barrier()
        if tmk.pid == 0:
            row = x.read((slice(0, 1),))[0]
            return (float(row[0]), float(row[4]))

    r = tmk_run(2, prog, setup_two_pages)
    assert r.results[0] == (9.0, 7.0)


def test_multiple_writer_false_sharing_merges():
    """Two processors write disjoint words of the same page concurrently."""

    def prog(tmk):
        x = tmk.array("x")
        x.write((0, slice(tmk.pid * 10, tmk.pid * 10 + 10)),
                float(tmk.pid + 1))
        tmk.barrier()
        row = x.read((slice(0, 1),))[0]
        return [float(row[i * 10]) for i in range(tmk.nprocs)]

    r = tmk_run(4, prog, setup_two_pages)
    for res in r.results:
        assert res == [1.0, 2.0, 3.0, 4.0]


def test_twins_created_once_per_write_epoch():
    def prog(tmk):
        x = tmk.array("x")
        if tmk.pid == 0:
            x.write((0, 0), 1.0)
            x.write((0, 1), 2.0)    # same page, same interval: no new twin
        tmk.barrier()
        return None

    r = tmk_run(2, prog, setup_two_pages)
    assert r.dsm_stats.twins_created == 1
    assert r.dsm_stats.write_faults == 1


def test_retwin_after_serving_diff():
    """After a diff is taken the page is write-protected again."""

    def prog(tmk):
        x = tmk.array("x")
        if tmk.pid == 0:
            x.write((0, 0), 1.0)
        tmk.barrier()
        if tmk.pid == 1:
            x.read((0, 0))          # forces p0's diff
        tmk.barrier()
        if tmk.pid == 0:
            x.write((0, 0), 2.0)    # new twin
        tmk.barrier()
        return float(x.read((0, 0)))

    r = tmk_run(2, prog, setup_two_pages)
    assert r.results == [2.0, 2.0]
    assert r.dsm_stats.twins_created == 2


def test_sequential_writers_last_value_wins():
    """Lock-ordered writes to one word: merge order must follow
    happens-before (regression for the vtsum ordering bug)."""

    def prog(tmk):
        x = tmk.array("x")
        tmk.lock_acquire(0)
        cur = float(x.read((0, 0)))
        x.write((0, 0), cur + 2.0 ** tmk.pid)
        tmk.lock_release(0)
        tmk.barrier()
        return float(x.read((0, 0)))

    for n in (2, 3, 4, 8):
        r = tmk_run(n, prog, setup_two_pages)
        expect = float(sum(2.0 ** p for p in range(n)))
        assert r.results == [expect] * n, f"n={n}"


def test_repeated_epochs_accumulate_correctly():
    def prog(tmk):
        x = tmk.array("x")
        lo, hi = tmk.block_range(2)
        for it in range(5):
            if hi > lo:
                cur = x.read((slice(lo, hi),)).copy()
                x.write((slice(lo, hi),), cur + 1.0)
            tmk.barrier()
        total = float(x.read().sum())
        return total

    r = tmk_run(2, prog, setup_two_pages)
    assert r.results == [5.0 * 2 * 1024] * 2


def _laggard_program(tmk):
    """p0 writes each epoch; p2 reads each epoch (forcing a diff per epoch
    into p0's cache); p1 reads only at the very end."""
    x = tmk.array("x")
    for it in range(12):
        if tmk.pid == 0:
            x.write((slice(0, 1),), float(it + 1))
        tmk.barrier()
        if tmk.pid == 2:
            assert float(x.read((0, 0))) == float(it + 1)
        tmk.barrier()
    return float(x.read((0, 0)))


def test_gc_falls_back_to_full_page():
    """A processor that lags many epochs gets a whole-page transfer once
    the diffs it would need have been collected (TreadMarks post-GC
    behaviour)."""
    r = tmk_run(3, _laggard_program, setup_two_pages, gc_epochs=3)
    assert r.results == [12.0] * 3
    assert r.dsm_stats.full_page_fetches >= 1


def test_gc_disabled_serves_diffs():
    r = tmk_run(3, _laggard_program, setup_two_pages, gc_epochs=None)
    assert r.results == [12.0] * 3
    assert r.dsm_stats.full_page_fetches == 0


def test_own_modifications_survive_full_page_fallback():
    """Concurrent writer's full-page fallback must not erase local history."""

    def prog(tmk):
        x = tmk.array("x")
        # both write disjoint words of page 0 at epoch 0
        x.write((0, tmk.pid), float(tmk.pid + 1))
        tmk.barrier()
        # p0 keeps rewriting its word for many epochs; p1 stays away
        for it in range(10):
            if tmk.pid == 0:
                x.write((0, 0), float(10 + it))
            tmk.barrier()
        row = x.read((slice(0, 1),))[0]
        return (float(row[0]), float(row[1]))

    r = tmk_run(2, prog, setup_two_pages, gc_epochs=3)
    assert r.results == [(19.0, 2.0), (19.0, 2.0)]


def test_scatter_access_faults_only_touched_pages():
    def prog(tmk):
        y = tmk.array("y")
        if tmk.pid == 0:
            yield from y.write_gen((slice(0, 4),), 5.0)
        yield from tmk.barrier_gen()
        if tmk.pid == 1:
            idx = [0, 3 * 1024]                # pages 0 and 3 only
            steps = y.gather_steps(idx)
            if steps is not None:
                yield from steps
            return [float(v) for v in y.raw().reshape(-1)[idx]]
        return None

    r = tmk_run(2, prog, setup_two_pages)
    assert r.results[1] == [5.0, 5.0]
    assert r.dsm_stats.read_faults == 2


def test_scatter_add_read_modify_write():
    def prog(tmk):
        y = tmk.array("y")
        steps = tmk.lock_acquire_steps(0)
        if steps is not None:
            yield from steps
        idx = [2 * 1024 + tmk.pid]
        steps = y.scatter_add_steps(idx)
        if steps is not None:
            yield from steps
        np.add.at(y.raw().reshape(-1), idx, [1.0])
        steps = tmk.lock_release_steps(0)
        if steps is not None:
            yield from steps
        yield from tmk.barrier_gen()
        return float((yield from y.read_gen((slice(2, 3),))).sum())

    r = tmk_run(3, prog, setup_two_pages)
    assert r.results == [3.0] * 3


def test_message_accounting_request_plus_reply():
    """A page fault is two messages, as the paper counts them."""

    def prog(tmk):
        x = tmk.array("x")
        if tmk.pid == 0:
            x.write((slice(0, 1),), 1.0)
        tmk.barrier()
        if tmk.pid == 1:
            x.read((slice(0, 1),))
        return None

    r = tmk_run(2, prog, setup_two_pages)
    assert r.stats.by_category["diff_req"][0] == 1
    assert r.stats.by_category["diff_rep"][0] == 1

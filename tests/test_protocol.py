"""Integration tests for the lazy-invalidate RC protocol (repro.tmk.protocol).

These run small programs through the full DSM (real pages, real diffs) and
assert both data values and protocol-event behaviour.  Every program is a
generator function (a generator process).
"""

import os
from types import SimpleNamespace

import numpy as np
import pytest

from repro.sim.machine import PAGE_SIZE, SP2_MODEL
from repro.tmk.api import TmkWorld, tmk_run
from repro.tmk.pagespace import SharedSpace
from repro.tmk.protocol import ZERO_TWIN, TmkNode

from .conftest import fingerprint_digest, lock_acquire, lock_release


def setup_two_pages(space):
    space.alloc("x", (2, 1024), np.float32)   # 2 pages, one row each
    space.alloc("y", (4, 1024), np.float32)


def test_initially_all_pages_valid_zero():
    def prog(tmk):
        x = tmk.array("x")
        assert float((yield from x.read_gen()).sum()) == 0.0
        return True

    r = tmk_run(3, prog, setup_two_pages)
    assert all(r.results)
    assert r.stats.messages == 0   # no communication for cold zeros


def test_single_writer_propagates_through_barrier():
    def prog(tmk):
        x = tmk.array("x")
        if tmk.pid == 0:
            yield from x.write_gen((slice(0, 1),), 42.0)
        yield from tmk.barrier_gen()
        return float((yield from x.read_gen((0, 5))))

    r = tmk_run(4, prog, setup_two_pages)
    assert r.results == [42.0] * 4


def test_unread_pages_never_fetch_diffs():
    """Laziness: modifications that nobody reads generate no data traffic."""

    def prog(tmk):
        y = tmk.array("y")
        lo, hi = tmk.block_range(4)
        if hi > lo:
            yield from y.write_gen((slice(lo, hi),), float(tmk.pid + 1))
        yield from tmk.barrier_gen()
        # nobody reads anyone else's rows
        if hi <= lo:
            return 0.0
        return float((yield from y.read_gen((slice(lo, hi),))).sum())

    r = tmk_run(4, prog, setup_two_pages)
    assert r.dsm_stats.diffs_created == 0
    assert r.dsm_stats.read_faults == 0
    assert r.stats.by_category.get("diff_req", [0, 0])[0] == 0


def test_read_fault_fetches_exactly_touched_pages():
    def prog(tmk):
        y = tmk.array("y")
        if tmk.pid == 0:
            yield from y.write_gen((slice(0, 4),), 3.0)   # all four pages
        yield from tmk.barrier_gen()
        if tmk.pid == 1:
            yield from y.read_gen((slice(2, 3),))          # only page 2
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
            yield from x.write_gen((slice(0, 1),), 7.0)
        yield from tmk.barrier_gen()
        if tmk.pid == 1:
            yield from x.write_gen((0, slice(0, 4)), 9.0)   # partial write
            row = (yield from x.read_gen((slice(0, 1),)))[0]
            assert row[0] == 9.0 and row[4] == 7.0
        yield from tmk.barrier_gen()
        if tmk.pid == 0:
            row = (yield from x.read_gen((slice(0, 1),)))[0]
            return (float(row[0]), float(row[4]))

    r = tmk_run(2, prog, setup_two_pages)
    assert r.results[0] == (9.0, 7.0)


def test_multiple_writer_false_sharing_merges():
    """Two processors write disjoint words of the same page concurrently."""

    def prog(tmk):
        x = tmk.array("x")
        yield from x.write_gen((0, slice(tmk.pid * 10, tmk.pid * 10 + 10)),
                               float(tmk.pid + 1))
        yield from tmk.barrier_gen()
        row = (yield from x.read_gen((slice(0, 1),)))[0]
        return [float(row[i * 10]) for i in range(tmk.nprocs)]

    r = tmk_run(4, prog, setup_two_pages)
    for res in r.results:
        assert res == [1.0, 2.0, 3.0, 4.0]


def test_twins_created_once_per_write_epoch():
    def prog(tmk):
        x = tmk.array("x")
        if tmk.pid == 0:
            yield from x.write_gen((0, 0), 1.0)
            # same page, same interval: no new twin
            yield from x.write_gen((0, 1), 2.0)
        yield from tmk.barrier_gen()
        return None

    r = tmk_run(2, prog, setup_two_pages)
    assert r.dsm_stats.twins_created == 1
    assert r.dsm_stats.write_faults == 1


def test_retwin_after_serving_diff():
    """After a diff is taken the page is write-protected again."""

    def prog(tmk):
        x = tmk.array("x")
        if tmk.pid == 0:
            yield from x.write_gen((0, 0), 1.0)
        yield from tmk.barrier_gen()
        if tmk.pid == 1:
            yield from x.read_gen((0, 0))          # forces p0's diff
        yield from tmk.barrier_gen()
        if tmk.pid == 0:
            yield from x.write_gen((0, 0), 2.0)    # new twin
        yield from tmk.barrier_gen()
        return float((yield from x.read_gen((0, 0))))

    r = tmk_run(2, prog, setup_two_pages)
    assert r.results == [2.0, 2.0]
    assert r.dsm_stats.twins_created == 2


def test_sequential_writers_last_value_wins():
    """Lock-ordered writes to one word: merge order must follow
    happens-before (regression for the vtsum ordering bug)."""

    def prog(tmk):
        x = tmk.array("x")
        yield from lock_acquire(tmk, 0)
        cur = float((yield from x.read_gen((0, 0))))
        yield from x.write_gen((0, 0), cur + 2.0 ** tmk.pid)
        yield from lock_release(tmk, 0)
        yield from tmk.barrier_gen()
        return float((yield from x.read_gen((0, 0))))

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
                cur = (yield from x.read_gen((slice(lo, hi),))).copy()
                yield from x.write_gen((slice(lo, hi),), cur + 1.0)
            yield from tmk.barrier_gen()
        total = float((yield from x.read_gen()).sum())
        return total

    r = tmk_run(2, prog, setup_two_pages)
    assert r.results == [5.0 * 2 * 1024] * 2


def _laggard_program(tmk):
    """p0 writes each epoch; p2 reads each epoch (forcing a diff per epoch
    into p0's cache); p1 reads only at the very end."""
    x = tmk.array("x")
    for it in range(12):
        if tmk.pid == 0:
            yield from x.write_gen((slice(0, 1),), float(it + 1))
        yield from tmk.barrier_gen()
        if tmk.pid == 2:
            assert float((yield from x.read_gen((0, 0)))) == float(it + 1)
        yield from tmk.barrier_gen()
    return float((yield from x.read_gen((0, 0))))


def test_gc_falls_back_to_full_page(monkeypatch):
    """A processor that lags many epochs gets a whole-page transfer once
    the diffs it would need have been collected (TreadMarks post-GC
    behaviour)."""
    monkeypatch.setattr(TmkWorld, "gc_epochs", 3)
    r = tmk_run(3, _laggard_program, setup_two_pages)
    assert r.results == [12.0] * 3
    assert r.dsm_stats.full_page_fetches >= 1


def test_gc_disabled_serves_diffs(monkeypatch):
    monkeypatch.setattr(TmkWorld, "gc_epochs", None)
    r = tmk_run(3, _laggard_program, setup_two_pages)
    assert r.results == [12.0] * 3
    assert r.dsm_stats.full_page_fetches == 0


def test_own_modifications_survive_full_page_fallback(monkeypatch):
    """Concurrent writer's full-page fallback must not erase local history."""

    def prog(tmk):
        x = tmk.array("x")
        # both write disjoint words of page 0 at epoch 0
        yield from x.write_gen((0, tmk.pid), float(tmk.pid + 1))
        yield from tmk.barrier_gen()
        # p0 keeps rewriting its word for many epochs; p1 stays away
        for it in range(10):
            if tmk.pid == 0:
                yield from x.write_gen((0, 0), float(10 + it))
            yield from tmk.barrier_gen()
        row = (yield from x.read_gen((slice(0, 1),)))[0]
        return (float(row[0]), float(row[1]))

    monkeypatch.setattr(TmkWorld, "gc_epochs", 3)
    r = tmk_run(2, prog, setup_two_pages)
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
            yield from x.write_gen((slice(0, 1),), 1.0)
        yield from tmk.barrier_gen()
        if tmk.pid == 1:
            yield from x.read_gen((slice(0, 1),))
        return None

    r = tmk_run(2, prog, setup_two_pages)
    assert r.stats.by_category["diff_req"][0] == 1
    assert r.stats.by_category["diff_rep"][0] == 1


# ---------------------------------------------------------------------- #
# the mid-footprint untwin (docs/PROTOCOL.md, "Known defects")

def _untwin_program(tmk):
    """p0's one write footprint covers page 0 (valid, twinned: noted
    without a charge) then page 1 (invalid: a fetch from p1).  While p0
    waits for that reply, p1 faults page 0 in, so p0's server diffs and
    untwins it; p0's kernel then writes page 0 with no twin."""
    x = tmk.array("x")
    if tmk.pid == 0:
        yield from x.write_gen((0, slice(0, 512)), 1.0)
    else:
        yield from x.write_gen((1, slice(0, 512)), 2.0)
    yield from tmk.barrier_gen()
    if tmk.pid == 0:
        steps = x.writable_steps((slice(0, 2), slice(512, 1024)))
        if steps is not None:
            yield from steps
        x.raw()[0:2, 512:1024] = 3.0
    else:
        yield from x.read_gen((0, slice(0, 512)))    # disjoint words
    yield from tmk.barrier_gen()
    if tmk.pid == 1:
        row = yield from x.read_gen((slice(0, 2), slice(512, 1024)))
        return row.min(axis=1).tolist()


def _untwin_run():
    return tmk_run(2, _untwin_program, setup_two_pages, trace=True)


def test_mid_footprint_untwin_interleaving_happens():
    """The pin: p0's server diffs page 0 while p0's walk waits on page 1's
    fetch, and the walk does not come back to page 0."""
    trace = _untwin_run().trace
    p0 = [(ev.kind, ev.page) for ev in trace.query(pid=0)]
    walk = p0.index(("diff-create", 0))
    assert p0[walk:walk + 3] == [("diff-create", 0), ("fetch", 1),
                                 ("fault", 1)]
    assert ("twin", 0) not in p0[walk:]


@pytest.mark.xfail(strict=True, reason="known defect: words written to a "
                   "page untwinned mid-footprint are never diffed "
                   "(docs/PROTOCOL.md, Known defects)")
def test_words_written_after_a_mid_footprint_serve_reach_a_later_reader():
    # page 1 (re-fetched with its twin) arrives; page 0's words are lost
    assert _untwin_run().results[1] == [3.0, 3.0]


# --------------------------------------------------------------------- #
# twin backing: a write trap on an all-zero page shares ZERO_TWIN, any
# other page gets a private read-only snapshot of its bytes

def _setup_bytes(space):
    space.alloc("b", (PAGE_SIZE,), np.uint8)      # exactly one page


def _retwin_program(tmk, twins):
    """p0 writes one byte into the zero page; p1's fetch diffs and untwins
    it; p0's next write traps on a page with one nonzero byte."""
    b = tmk.array("b")
    page = b.handle.offset // PAGE_SIZE
    if tmk.pid == 0:
        yield from b.write_gen((10,), 7)
        twins.append(tmk.node.twins[page])
    yield from tmk.barrier_gen()
    if tmk.pid == 1:
        yield from b.read_gen((10,))
    yield from tmk.barrier_gen()
    if tmk.pid == 0:
        twins.append(page in tmk.node.twins)
        image = tmk.node.page_bytes(page).copy()
        yield from b.write_gen((20,), 9)
        twins.append((tmk.node.twins[page], image))
    yield from tmk.barrier_gen()
    if tmk.pid == 1:
        return (yield from b.read_gen()).nonzero()[0].tolist()


def _retwin_run():
    twins = []
    result = tmk_run(2, _retwin_program, _setup_bytes, args=(twins,))
    return result, twins


def test_write_trap_on_a_zero_page_shares_the_zero_twin():
    _result, (first, _still_twinned, _second) = _retwin_run()
    assert first is ZERO_TWIN


def test_write_trap_on_a_nonzero_page_takes_a_private_twin():
    _result, (_first, still_twinned, (twin, image)) = _retwin_run()
    assert not still_twinned                  # p1's fetch diffed the page
    assert twin is not ZERO_TWIN
    assert image.nonzero()[0].tolist() == [10]
    assert np.array_equal(twin, image)


def test_twins_are_read_only():
    _result, (first, _still_twinned, (twin, _image)) = _retwin_run()
    for backing in (first, twin):
        with pytest.raises(ValueError, match="read-only"):
            backing[0] = 1


def test_write_after_a_diff_re_twins_the_page():
    result, _twins = _retwin_run()
    assert result.results[1] == [10, 20]
    stats = result.dsm_stats
    assert stats.twins_created == 2
    # one one-word run each: the second diff is against the re-twinned
    # page, not against zeros (which would give two runs)
    assert stats.diffs_created == 2
    assert stats.diff_bytes_created == 2 * (4 + 8)


# --------------------------------------------------------------------- #
# the node image: a node's copy of the shared space is resident only in
# the 4 KB pages it touched

def _lone_node(nbytes):
    """A TmkNode over a space of ``nbytes`` bytes, with no simulator."""
    space = SharedSpace()
    if nbytes:
        space.alloc("x", (nbytes,), np.uint8)
    env = SimpleNamespace(pid=0, nprocs=1, model=SP2_MODEL, net=None,
                          proc=None)
    return TmkNode(TmkWorld(1, space), env)


def _smaps_totals(array):
    """``{field: kB}`` summed over the /proc/self/smaps mappings that hold
    any of ``array``'s bytes."""
    lo, hi = array.ctypes.data, array.ctypes.data + array.nbytes
    totals, inside = {}, False
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            head = line.split()[0]
            if "-" in head and not head.endswith(":"):
                start, end = (int(x, 16) for x in head.split("-"))
                inside = start < hi and lo < end
            elif inside and line.rstrip().endswith(" kB"):
                key = head[:-1]
                totals[key] = totals.get(key, 0) + int(line.split()[1])
    return totals


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps"),
                    reason="needs /proc/self/smaps")
def test_node_image_is_resident_only_in_touched_pages():
    node = _lone_node(16 << 20)
    stride = 64 * PAGE_SIZE
    node.mem[::stride] = 1
    touched_kb = len(range(0, node.mem.size, stride)) * PAGE_SIZE // 1024
    totals = _smaps_totals(node.mem)
    assert totals["AnonHugePages"] == 0
    assert totals["Rss"] <= touched_kb + 8 * PAGE_SIZE // 1024


@pytest.mark.parametrize("nbytes", [0, 1, PAGE_SIZE, 5 * PAGE_SIZE])
def test_node_image_is_zeroed_writable_and_space_sized(nbytes):
    node = _lone_node(nbytes)
    assert node.mem.dtype == np.uint8
    assert node.mem.shape == (node.space.nbytes,)
    assert not node.mem.any()
    node.mem[:] = 7
    assert (node.mem == 7).all()


# --------------------------------------------------------------------- #
# ``fingerprint_digest`` of each DSM ``test`` cell, computed before a zero
# page shared its twin.  Any change to the twin
# path's faults, diffs, messages or virtual time moves one of them.  The
# known-defect cells (tests/test_apps_correctness.py) are left out.
DSM_FINGERPRINT_DIGESTS = {
    ("jacobi", "tmk", 2): "87da2d528443ca24",
    ("jacobi", "tmk", 5): "d499cca9cf10d164",
    ("jacobi", "spf", 2): "d03e359fc4063e60",
    ("jacobi", "spf", 5): "9049b1d18e88582f",
    ("jacobi", "spf_opt", 2): "2909eb872ead82d1",
    ("jacobi", "spf_opt", 5): "3e5e49629381da84",
    ("shallow", "tmk", 2): "e219c62bc546111f",
    ("shallow", "spf", 2): "af10f1a9b1238c9e",
    ("shallow", "spf", 5): "dfba9f9b262024d7",
    ("shallow", "spf_opt", 2): "8c4a4d1b0343cd98",
    ("shallow", "spf_opt", 5): "1c94c45b51c13b27",
    ("mgs", "tmk", 2): "c568c072844423a5",
    ("mgs", "tmk", 5): "9fcc0abe370992ed",
    ("mgs", "spf", 2): "e33f59b89e4e87ad",
    ("mgs", "spf", 5): "73d3c19d6c816a1b",
    ("mgs", "spf_opt", 2): "e07053f5ee9a8f97",
    ("mgs", "spf_opt", 5): "d0b9918d7d5f0e28",
    ("fft3d", "tmk", 2): "116674c6957a5f44",
    ("fft3d", "tmk", 5): "fcdc20858587acfb",
    ("fft3d", "spf", 2): "d9dea7bbafa12579",
    ("fft3d", "spf", 5): "b66f60a29db26b7b",
    ("fft3d", "spf_opt", 2): "1d9c10edf162259b",
    ("fft3d", "spf_opt", 5): "e7b703b32cf008d8",
    ("igrid", "tmk", 5): "c3b6e2e72dafc7d9",
    ("igrid", "spf", 2): "5721dc2135067c17",
    ("igrid", "spf", 5): "7f5a1843cf120f8a",
    ("nbf", "tmk", 2): "0075adee41c18f68",
    ("nbf", "tmk", 5): "b342c8eb17dda9ef",
    ("nbf", "spf", 2): "fefb9ccd8b883f9a",
    ("nbf", "spf", 5): "a30595a8e6e8c6d6",
}


@pytest.mark.parametrize("app,variant,n", sorted(DSM_FINGERPRINT_DIGESTS))
def test_dsm_fingerprint_digests_unchanged(app, variant, n):
    assert fingerprint_digest(app, variant, n) \
        == DSM_FINGERPRINT_DIGESTS[app, variant, n]

"""Tests for the enhanced compiler-DSM interface (repro.tmk.enhanced)."""

import numpy as np
import pytest

from repro.tmk import enhanced
from repro.tmk.api import tmk_run


def setup(space):
    space.alloc("a", (8, 1024), np.float32)   # 8 pages


def validate(node, handle, region):
    steps = enhanced.validate_steps(node, handle, region)
    if steps is not None:
        yield from steps


def test_validate_equivalent_to_faulting():
    """Aggregated validate yields the same data as page-by-page faults."""

    def prog(tmk):
        a = tmk.array("a")
        if tmk.pid == 0:
            yield from a.write_gen((slice(0, 8),), 4.0)
        yield from tmk.barrier_gen()
        if tmk.pid == 1:
            yield from validate(tmk.node, a.handle, (slice(0, 8), slice(None)))
            return float(a.raw().sum())

    r = tmk_run(2, prog, setup)
    assert r.results[1] == 4.0 * 8 * 1024


def test_validate_one_roundtrip_per_writer():
    """8 invalid pages from one writer: 2 messages total, not 16."""

    def prog(tmk):
        a = tmk.array("a")
        if tmk.pid == 0:
            yield from a.write_gen((slice(0, 8),), 1.0)
        yield from tmk.barrier_gen()
        if tmk.pid == 1:
            yield from validate(tmk.node, a.handle, (slice(0, 8), slice(None)))

    r = tmk_run(2, prog, setup)
    assert r.stats.by_category["diff_req"][0] == 1
    assert r.stats.by_category["diff_rep"][0] == 1
    assert r.dsm_stats.aggregated_validates == 1
    assert r.dsm_stats.read_faults == 0


def test_validate_multiple_writers_batched_per_writer():
    def prog(tmk):
        a = tmk.array("a")
        lo, hi = tmk.block_range(8)
        yield from a.write_gen((slice(lo, hi),), float(tmk.pid + 1))
        yield from tmk.barrier_gen()
        if tmk.pid == 0:
            yield from validate(tmk.node, a.handle, (slice(0, 8), slice(None)))
            return [float(a.raw()[r, 0]) for r in range(8)]

    r = tmk_run(4, prog, setup)
    assert r.results[0] == [1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0]
    # one round trip per remote writer (3), issued before any access
    assert r.stats.by_category["diff_req"][0] == 3


def test_validate_noop_when_everything_valid():
    def prog(tmk):
        a = tmk.array("a")
        yield from validate(tmk.node, a.handle, (slice(0, 8), slice(None)))

    r = tmk_run(2, prog, setup)
    assert r.messages == 0


def test_push_regions_prevents_demand_fetch():
    def prog(tmk):
        a = tmk.array("a")
        if tmk.pid == 0:
            yield from a.write_gen((slice(0, 1),), 9.0)
            yield from enhanced.push_regions_gen(
                tmk.node, [(a.handle, (slice(0, 1),))], dests=[1])
            yield from tmk.barrier_gen()
        else:
            yield from enhanced.expect_pushes_gen(tmk.node, 1)
            yield from tmk.barrier_gen()
            before = tmk.world.dsm_stats.read_faults
            val = float((yield from a.read_gen((0, 0))))
            faults = tmk.world.dsm_stats.read_faults - before
            return (val, faults)

    r = tmk_run(2, prog, setup)
    assert r.results[1] == (9.0, 0)
    assert r.dsm_stats.pushes == 1


def test_push_carries_whole_page_modifications():
    """Pushed data is the sender's complete per-page diff, so the receiver
    holds exactly what a demand fetch would have built."""

    def prog(tmk):
        a = tmk.array("a")
        if tmk.pid == 0:
            yield from a.write_gen((0, slice(0, 10)), 1.0)
            yield from a.write_gen((0, slice(500, 510)), 2.0)   # same page, other words
            yield from enhanced.push_regions_gen(
                tmk.node, [(a.handle, (0, slice(0, 10)))], [1])
            yield from tmk.barrier_gen()
        else:
            yield from enhanced.expect_pushes_gen(tmk.node, 1)
            yield from tmk.barrier_gen()
            row = (yield from a.read_gen((slice(0, 1),)))[0]
            return (float(row[0]), float(row[505]))

    r = tmk_run(2, prog, setup)
    assert r.results[1] == (1.0, 2.0)


def _bcast_after_worker_write(nprocs, fault_in_first):
    """Worker 2 writes row 3 in one loop; the master then forks the next
    loop with a :class:`BcastPayload` of that row, having faulted it in
    first or not."""
    from repro.tmk.forkjoin import ImprovedForkJoin

    def prog(tmk):
        fj = ImprovedForkJoin(tmk.node)
        a = tmk.array("a")
        if tmk.pid == 0:
            yield from fj.fork_gen(0, ())
            yield from fj.join_gen()
            if fault_in_first:
                yield from a.read_gen((slice(3, 4),))
            payload = yield from enhanced.BcastPayload.build_gen(
                tmk.node, [(a.handle, (slice(3, 4), slice(None)))])
            yield from fj.fork_gen(1, (), payload=payload)
            yield from fj.join_gen()
            yield from fj.shutdown_gen()
            return None
        yield from fj.wait_for_work_gen()
        if tmk.pid == 2:
            yield from a.write_gen((slice(3, 4),), 7.5)
        yield from fj.work_done_gen()
        yield from fj.wait_for_work_gen()
        before = tmk.world.dsm_stats.read_faults
        val = float((yield from a.read_gen((3, 100))))
        faults = tmk.world.dsm_stats.read_faults - before
        yield from fj.work_done_gen()
        yield from fj.wait_for_work_gen()
        return (val, faults)

    return tmk_run(nprocs, prog, setup)


def test_bcast_payload_delivers_another_writers_page_on_the_fork():
    """The master broadcasts the page image it faulted in from worker 2:
    every worker, the writer included, reads it without a fault, and the
    only data traffic is the master's own fetch."""
    r = _bcast_after_worker_write(4, fault_in_first=True)
    assert r.results[1:] == [(7.5, 0)] * 3
    assert r.dsm_stats.pushes == 3
    assert r.stats.by_category["diff_req"][0] == 1


def test_bcast_payload_refuses_a_stale_holder():
    with pytest.raises(RuntimeError, match="stale holder"):
        _bcast_after_worker_write(3, fault_in_first=False)


def test_push_payload_build_empty_for_clean_pages():
    def prog(tmk):
        a = tmk.array("a")
        payload = yield from enhanced.PushPayload.build_gen(
            tmk.node, [(a.handle, (slice(0, 1),))])
        return payload is None

    r = tmk_run(2, prog, setup)
    assert all(r.results)

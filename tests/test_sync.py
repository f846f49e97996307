"""Tests for barriers and locks (repro.tmk.sync).

Every program is a generator function (a generator process): it blocks by
delegating to the generator forms with ``yield from``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tmk.api import tmk_run


def setup(space):
    space.alloc("x", (8, 1024), np.float32)
    space.alloc("counter", (1,), np.float64)


def acquire(tmk, lock):
    steps = tmk.lock_acquire_steps(lock)
    if steps is not None:
        yield from steps


def release(tmk, lock):
    steps = tmk.lock_release_steps(lock)
    if steps is not None:
        yield from steps


def test_barrier_message_count_is_2n_minus_2():
    """'The number of messages sent in a barrier is 2 x (n - 1).'"""

    def prog(tmk):
        yield from tmk.barrier_gen()

    for n in (2, 4, 8):
        r = tmk_run(n, prog, setup)
        assert r.stats.by_category["sync"][0] == 2 * (n - 1), f"n={n}"


def test_barrier_with_one_processor_is_free():
    def prog(tmk):
        for _ in range(5):
            yield from tmk.barrier_gen()

    r = tmk_run(1, prog, setup)
    assert r.messages == 0


def test_barrier_is_a_time_synchronizer():
    def prog(tmk):
        yield from tmk.compute_gen(0.1 * (tmk.pid + 1))
        yield from tmk.barrier_gen()
        return tmk.now

    r = tmk_run(4, prog, setup)
    slowest = 0.4
    assert all(t >= slowest for t in r.results)


def test_many_barriers_in_sequence():
    def prog(tmk):
        for i in range(20):
            yield from tmk.barrier_gen()
        return True

    r = tmk_run(5, prog, setup)
    assert all(r.results)
    assert r.stats.by_category["sync"][0] == 20 * 2 * 4


def test_lock_provides_mutual_exclusion_counter():
    def prog(tmk):
        c = tmk.array("counter")
        for _ in range(5):
            yield from acquire(tmk, 0)
            cur = float((yield from c.read_gen((0,))))
            yield from c.write_gen((0,), cur + 1.0)
            yield from release(tmk, 0)
        yield from tmk.barrier_gen()
        return float((yield from c.read_gen((0,))))

    for n in (2, 4, 7):
        r = tmk_run(n, prog, setup)
        assert r.results == [5.0 * n] * n, f"n={n}"


def test_lock_reacquire_by_manager_is_free():
    """Re-acquiring a lock nobody requested causes no communication."""

    def prog(tmk):
        if tmk.pid == 0:   # manager of lock 0
            for _ in range(10):
                yield from acquire(tmk, 0)
                yield from release(tmk, 0)

    r = tmk_run(2, prog, setup)
    assert r.stats.by_category.get("sync", [0, 0])[0] == 0


def test_release_without_waiter_is_silent():
    """'A lock release does not cause any communication.'"""

    def prog(tmk):
        if tmk.pid == 1:
            yield from acquire(tmk, 0)      # request + grant
            yield from release(tmk, 0)      # silent

    r = tmk_run(2, prog, setup)
    # exactly: request to manager + grant back
    assert r.stats.by_category["sync"][0] == 2


def test_lock_forwarding_chain_three_messages():
    """Acquire of a lock held elsewhere: request, forward, grant."""

    def prog(tmk):
        if tmk.pid == 1:
            yield from acquire(tmk, 0)
            yield from release(tmk, 0)
        yield from tmk.barrier_gen()
        if tmk.pid == 2:
            yield from acquire(tmk, 0)  # manager 0 forwards to last holder 1
            yield from release(tmk, 0)

    r = tmk_run(3, prog, setup)
    # p1: req+grant (2) + barrier 2*(3-1)=4 + p2: req+forward+grant (3)
    assert r.stats.by_category["sync"][0] == 2 + 4 + 3


def test_multiple_locks_independent_managers():
    def prog(tmk):
        c = tmk.array("x")
        for lock in range(6):     # managers 0,1,2,0,1,2 at n=3
            yield from acquire(tmk, lock)
            cur = float((yield from c.read_gen((lock, 0))))
            yield from c.write_gen((lock, 0), cur + 1.0)
            yield from release(tmk, lock)
        yield from tmk.barrier_gen()
        out = []
        for l in range(6):
            out.append(float((yield from c.read_gen((l, 0)))))
        return out

    r = tmk_run(3, prog, setup)
    for res in r.results:
        assert res == [3.0] * 6


def test_lock_grants_carry_consistency_information():
    """Data written under a lock is visible to the next holder without a
    barrier — the grant's piggybacked write notices do the invalidation."""

    def prog(tmk):
        x = tmk.array("x")
        if tmk.pid == 0:
            yield from acquire(tmk, 3)
            yield from x.write_gen((0, 0), 99.0)
            yield from release(tmk, 3)
            yield from tmk.barrier_gen()
        else:
            yield from tmk.barrier_gen()
            yield from acquire(tmk, 3)
            val = float((yield from x.read_gen((0, 0))))
            yield from release(tmk, 3)
            return val

    r = tmk_run(2, prog, setup)
    assert r.results[1] == 99.0


def test_lock_chain_transitivity():
    """p0 -> p1 -> p2 lock chain: p2 must see p0's writes through p1's
    grant even though p0 and p2 never communicate directly."""

    def prog(tmk):
        x = tmk.array("x")
        if tmk.pid == 0:
            yield from acquire(tmk, 1)
            yield from x.write_gen((1, 0), 7.0)
            yield from release(tmk, 1)
        yield from tmk.barrier_gen()   # order the acquires deterministically
        if tmk.pid == 1:
            yield from acquire(tmk, 1)
            prev = yield from x.read_gen((1, 0))
            yield from x.write_gen((1, 1), float(prev) + 1)
            yield from release(tmk, 1)
        yield from tmk.barrier_gen()
        if tmk.pid == 2:
            yield from acquire(tmk, 1)
            row = (yield from x.read_gen((slice(1, 2),)))[0]
            yield from release(tmk, 1)
            return (float(row[0]), float(row[1]))

    r = tmk_run(3, prog, setup)
    assert r.results[2] == (7.0, 8.0)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)),
                min_size=1, max_size=12))
def test_lock_stress_random_schedules(plan):
    """Random per-processor lock sequences: the global counter of each lock
    equals the number of acquires of it (lost-update detector; regression
    for the tenure-chain bug)."""
    nprocs = 4

    def setup_stress(space):
        space.alloc("counts", (3, 1024), np.float64)

    def prog(tmk):
        c = tmk.array("counts")
        for who, lock in plan:
            if tmk.pid == who % nprocs:
                yield from acquire(tmk, lock)
                cur = float((yield from c.read_gen((lock, 0))))
                yield from c.write_gen((lock, 0), cur + 1.0)
                yield from release(tmk, lock)
        yield from tmk.barrier_gen()
        out = []
        for l in range(3):
            out.append(float((yield from c.read_gen((l, 0)))))
        return out

    r = tmk_run(nprocs, prog, setup_stress)
    expected = [sum(1 for _w, l in plan if l == lk) for lk in range(3)]
    for res in r.results:
        assert res == [float(e) for e in expected]

"""Randomized release-consistency checking.

Hypothesis generates arbitrary race-free shared-memory programs — per
barrier epoch, each processor writes an arbitrary set of cells inside its
own column lane (lanes make concurrent writes disjoint by construction,
while still sharing pages heavily: a row spans every lane) and afterwards
reads arbitrary cells.  A sequential replay oracle computes what every read
must observe under release consistency.  Any protocol defect — lost diffs,
wrong merge order, watermark over-advance, stale validity — shows up as a
wrong read.

This is the test family that would have caught each of the protocol bugs
found during development (happens-before diff ordering, the mid-interval
watermark, the diff-cache/twin race, lock-chain tenure overtaking).

Every program is a generator program (no thread), like every program
``execute()`` runs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tmk.api import tmk_run

ROWS = 8
COLS = 256          # one page holds 4 rows -> heavy false sharing
NPROCS = 4
LANE = COLS // NPROCS

# one program step per processor and epoch:
#   writes: list of (row, offset-in-lane, width, value-seed)
#   reads:  list of (row, col)
write_op = st.tuples(st.integers(0, ROWS - 1), st.integers(0, LANE - 1),
                     st.integers(1, LANE), st.integers(1, 100))
read_op = st.tuples(st.integers(0, ROWS - 1), st.integers(0, COLS - 1))
epoch = st.tuples(st.lists(write_op, max_size=4),
                  st.lists(read_op, max_size=4))
program_strategy = st.lists(
    st.tuples(*[epoch for _ in range(NPROCS)]), min_size=1, max_size=5)


def oracle_replay(program):
    """Sequential model: apply every epoch's writes in any order (they are
    disjoint), snapshotting the array after each epoch."""
    state = np.zeros((ROWS, COLS), dtype=np.float32)
    snapshots = []
    for epoch_ops in program:
        for pid, (writes, _reads) in enumerate(epoch_ops):
            lane_lo = pid * LANE
            for row, off, width, seed in writes:
                lo = lane_lo + off
                hi = min(lo + width, lane_lo + LANE)
                state[row, lo:hi] = seed + pid * 1000
        snapshots.append(state.copy())
    return snapshots


def dsm_program(tmk, program, snapshots):
    x = tmk.array("x")
    lane_lo = tmk.pid * LANE
    for epoch_idx, epoch_ops in enumerate(program):
        writes, _ = epoch_ops[tmk.pid]
        for row, off, width, seed in writes:
            lo = lane_lo + off
            hi = min(lo + width, lane_lo + LANE)
            yield from x.write_gen((row, slice(lo, hi)),
                                   float(seed + tmk.pid * 1000))
        yield from tmk.barrier_gen()
        _, reads = epoch_ops[tmk.pid]
        expect = snapshots[epoch_idx]
        for row, col in reads:
            got = float((yield from x.read_gen((row, col))))
            want = float(expect[row, col])
            assert got == want, (
                f"epoch {epoch_idx} p{tmk.pid}: x[{row},{col}] = {got}, "
                f"oracle says {want}")
        yield from tmk.barrier_gen()
    return True


def setup(space):
    space.alloc("x", (ROWS, COLS), np.float32)


@settings(max_examples=25, deadline=None)
@given(program_strategy)
def test_random_programs_consistent(program):
    snapshots = oracle_replay(program)
    result = tmk_run(NPROCS, dsm_program, setup, args=(program, snapshots))
    assert all(result.results)


@settings(max_examples=10, deadline=None)
@given(program_strategy, st.integers(2, 6))
def test_random_programs_consistent_any_size(program, nprocs):
    """Same property on varying cluster sizes (lanes re-derived)."""
    lane = COLS // nprocs

    def oracle():
        state = np.zeros((ROWS, COLS), dtype=np.float32)
        snaps = []
        for epoch_ops in program:
            for pid in range(nprocs):
                writes, _ = epoch_ops[pid % NPROCS]
                for row, off, width, seed in writes:
                    lo = pid * lane + (off % lane)
                    hi = min(lo + width, (pid + 1) * lane)
                    state[row, lo:hi] = seed + pid * 1000
            snaps.append(state.copy())
        return snaps

    snaps = oracle()

    def prog(tmk):
        x = tmk.array("x")
        for epoch_idx, epoch_ops in enumerate(program):
            writes, _ = epoch_ops[tmk.pid % NPROCS]
            for row, off, width, seed in writes:
                lo = tmk.pid * lane + (off % lane)
                hi = min(lo + width, (tmk.pid + 1) * lane)
                if hi > lo:
                    yield from x.write_gen((row, slice(lo, hi)),
                                           float(seed + tmk.pid * 1000))
            yield from tmk.barrier_gen()
            _, reads = epoch_ops[tmk.pid % NPROCS]
            for row, col in reads:
                got = float((yield from x.read_gen((row, col))))
                want = float(snaps[epoch_idx][row, col])
                assert got == want, (epoch_idx, tmk.pid, row, col, got, want)
            yield from tmk.barrier_gen()
        return True

    result = tmk_run(nprocs, prog, setup)
    assert all(result.results)


@settings(max_examples=10, deadline=None)
@given(st.lists(st.tuples(st.integers(0, NPROCS - 1), st.integers(1, 50)),
                min_size=1, max_size=12))
def test_random_lock_histories_serialize(ops):
    """Random lock-protected increments: the final counter equals the sum
    of every applied increment, on every processor."""

    def setup_counter(space):
        space.alloc("x", (ROWS, COLS), np.float32)
        space.alloc("counter", (1,), np.float64)

    def prog(tmk):
        c = tmk.array("counter")
        for who, amount in ops:
            if tmk.pid == who:
                steps = tmk.lock_acquire_steps(1)
                if steps is not None:
                    yield from steps
                cur = float((yield from c.read_gen((0,))))
                yield from c.write_gen((0,), cur + amount)
                steps = tmk.lock_release_steps(1)
                if steps is not None:
                    yield from steps
        yield from tmk.barrier_gen()
        return float((yield from c.read_gen((0,))))

    result = tmk_run(NPROCS, prog, setup_counter)
    total = float(sum(a for _w, a in ops))
    assert result.results == [total] * NPROCS

"""Tests for BLOCK/CYCLIC partitioning (repro.compiler.partition)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.ir import ArrayDecl, ParallelLoop, Program
from repro.compiler.partition import (Chunk, block_owner, block_range,
                                      cyclic_indices, cyclic_owner,
                                      loop_chunk)
from repro.compiler.xhpf import compile_xhpf


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 500), st.integers(1, 16))
def test_block_ranges_partition_exactly(extent, nprocs):
    """Block chunks are disjoint, ordered, and cover [0, extent)."""
    spans = [block_range(extent, nprocs, p) for p in range(nprocs)]
    assert spans[0][0] == 0
    assert spans[-1][1] == extent
    for (a, b), (c, d) in zip(spans, spans[1:]):
        assert b == c
    sizes = [hi - lo for lo, hi in spans]
    assert max(sizes) - min(sizes) <= 1     # balanced


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 500), st.integers(1, 16), st.integers(0, 499))
def test_block_owner_consistent_with_range(extent, nprocs, index):
    index = index % extent
    owner = block_owner(extent, nprocs, index)
    lo, hi = block_range(extent, nprocs, owner)
    assert lo <= index < hi


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 300), st.integers(1, 12), st.integers(0, 50))
def test_cyclic_indices_partition_exactly(extent, nprocs, start):
    start = min(start, extent)
    all_indices = np.concatenate(
        [cyclic_indices(extent, nprocs, p, start) for p in range(nprocs)])
    assert sorted(all_indices.tolist()) == list(range(start, extent))


def test_cyclic_owner():
    assert cyclic_owner(0, 4) == 0
    assert cyclic_owner(7, 4) == 3


def test_cyclic_indices_respect_start():
    idx = cyclic_indices(16, 4, 1, start=5)
    assert idx.tolist() == [5, 9, 13]
    idx0 = cyclic_indices(16, 4, 0, start=5)
    assert idx0.tolist() == [8, 12]


def test_more_procs_than_work():
    spans = [block_range(3, 8, p) for p in range(8)]
    nonempty = [s for s in spans if s[1] > s[0]]
    assert len(nonempty) == 3
    assert spans[-1] == (3, 3)


# ---------------------------------------------------------------------- #
# Chunk: every partition policy splits the iteration space exactly, and
# the per-chunk step (kernel call + cost) adds up to the whole loop's

UNIT = 2.0 ** -10     # costs are multiples of this, so float sums are exact


@st.composite
def loops(draw):
    """(loop, nprocs, seen): ``seen`` collects the iterations each kernel
    call was handed, whichever calling convention it came through."""
    extent = draw(st.integers(1, 120))
    start = draw(st.integers(0, extent))
    schedule = draw(st.sampled_from(["block", "cyclic"]))
    cost = draw(st.integers(0, 8)) * UNIT
    seen = []

    def kernel(views, lo, hi=None):
        seen.append(list(range(lo, hi)) if hi is not None else lo.tolist())

    loop = ParallelLoop("l", extent, kernel, schedule=schedule, start=start,
                        align=("a", 0), cost_per_iter=cost)
    return loop, draw(st.integers(1, 12)), seen


def xhpf_chunk(loop, pid, nprocs):
    """Owner-aligned: the loop follows a BLOCK-distributed array that is
    at least as long as the iteration space."""
    prog = Program("p", [ArrayDecl("a", (loop.extent + 3, 2), distribute=0)],
                   [loop])
    return compile_xhpf(prog, nprocs).chunk(loop, pid)


POLICIES = [loop_chunk, xhpf_chunk]


@pytest.mark.parametrize("policy", POLICIES, ids=lambda f: f.__name__)
@settings(max_examples=60, deadline=None)
@given(loops())
def test_chunks_partition_and_costs_add_up(policy, case):
    loop, nprocs, seen = case
    chunks = [policy(loop, pid, nprocs) for pid in range(nprocs)]
    owned = [i for chunk in chunks for i in chunk.indices.tolist()]
    assert sorted(owned) == list(range(loop.start, loop.extent))
    assert [chunk.count for chunk in chunks] == \
        [len(chunk.indices) for chunk in chunks]
    for chunk in chunks:
        if chunk.count:
            assert (chunk.lo, chunk.hi - 1) == (chunk.indices[0],
                                                chunk.indices[-1])
    total = 0.0
    for chunk in chunks:
        calls = len(seen)
        partials, cost = chunk.run(loop, {})
        assert len(seen) == calls + (1 if chunk.count else 0)
        if not chunk.count:             # an empty chunk runs no kernel
            assert (partials, cost) == (None, 0.0)
        total += cost
    assert sorted(i for call in seen for i in call) == sorted(owned)
    del seen[:]
    _partials, whole_cost = Chunk.whole(loop).run(loop, {})
    assert total == whole_cost
    assert seen in ([], [list(range(loop.start, loop.extent))])


def test_chunk_is_a_value():
    """Chunks compare by content, so consumers can be checked to agree."""
    loop = ParallelLoop("l", 10, None, schedule="cyclic", start=3)
    assert loop_chunk(loop, 1, 4) == Chunk.cyclic(3, 10, 4, 1) == Chunk(5, 10, 4)
    assert Chunk(5, 10, 4).indices.tolist() == [5, 9]
    assert Chunk.whole(loop).indices.tolist() == list(range(3, 10))
    block = ParallelLoop("l", 10, None, start=3)
    assert Chunk.whole(block) == Chunk(3, 10) != Chunk(3, 10, 1)
    assert {loop_chunk(block, p, 2) for p in range(2)} == \
        {Chunk(3, 7), Chunk(7, 10)}

"""Tests for message-passing collectives (repro.msg.collectives)."""

import numpy as np
import pytest

from repro.msg import Comm, Pvme
from repro.msg.collectives import (allreduce_gen, alltoall_gen, bcast_gen,
                                   reduce_gen)
from repro.sim import Cluster

SIZES = [1, 2, 3, 5, 8]


def run(nprocs, fn):
    return Cluster(nprocs=nprocs).run(fn)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("root", [0, -1])
def test_bcast_all_sizes_roots(n, root):
    root = root % n

    def prog(env):
        comm = Comm(env)
        value = {"data": 123} if env.pid == root else None
        return (yield from bcast_gen(comm, value, root=root))

    r = run(n, prog)
    assert all(res == {"data": 123} for res in r.results)


def test_bcast_message_count_n_minus_one():
    def prog(env):
        yield from bcast_gen(Comm(env), 1 if env.pid == 0 else None, root=0)

    for n in SIZES:
        r = run(n, prog)
        assert r.messages == n - 1, f"n={n}"


@pytest.mark.parametrize("n", SIZES)
def test_reduce_sum(n):
    def prog(env):
        return (yield from reduce_gen(Comm(env), env.pid + 1,
                                      lambda a, b: a + b, root=0))

    r = run(n, prog)
    assert r.results[0] == n * (n + 1) // 2
    assert all(res is None for res in r.results[1:])


@pytest.mark.parametrize("n", SIZES)
def test_allreduce_max(n):
    def prog(env):
        return (yield from allreduce_gen(Comm(env), env.pid * 2, max))

    r = run(n, prog)
    assert r.results == [(n - 1) * 2] * n


@pytest.mark.parametrize("n", SIZES)
def test_alltoall_permutes(n):
    def prog(env):
        vals = [env.pid * 100 + d for d in range(n)]
        return (yield from alltoall_gen(Comm(env), vals))

    r = run(n, prog)
    for dst, res in enumerate(r.results):
        assert res == [src * 100 + dst for src in range(n)]


def test_alltoall_message_count():
    def prog(env):
        yield from alltoall_gen(Comm(env), list(range(env.nprocs)))

    for n in (2, 4, 8):
        r = run(n, prog)
        assert r.messages == n * (n - 1)


def test_collectives_compose_in_sequence():
    def prog(env):
        comm = Comm(env)
        a = yield from allreduce_gen(comm, 1, lambda x, y: x + y)
        b = yield from bcast_gen(comm, a * 2 if env.pid == 0 else None,
                                 root=0)
        c = yield from alltoall_gen(comm, [b + env.pid] * env.nprocs)
        return c

    r = run(4, prog)
    assert all(res == [8, 9, 10, 11] for res in r.results)


def test_numpy_payloads_through_collectives():
    def prog(env):
        comm = Comm(env)
        arr = np.full(100, env.pid, dtype=np.float64)
        total = yield from allreduce_gen(comm, arr, lambda a, b: a + b)
        return float(total[0])

    r = run(4, prog)
    assert r.results == [6.0] * 4


def test_pvme_facade_roundtrip():
    def prog(env):
        p = Pvme(env)
        assert p.tid == env.pid and p.ntasks == env.nprocs
        if p.tid == 0:
            yield from p.send_gen(1, np.arange(4.0), tag=3)
        elif p.tid == 1:
            got = yield from p.recv_gen(src=0, tag=3)
            return got.tolist()
        return None

    r = run(2, prog)
    assert r.results[1] == [0.0, 1.0, 2.0, 3.0]


def test_pvme_block_range_covers_extent():
    def prog(env):
        yield from ()
        p = Pvme(env)
        return p.block_range(100)

    r = run(7, prog)
    spans = r.results
    assert spans[0][0] == 0 and spans[-1][1] == 100
    for (a, b), (c, d) in zip(spans, spans[1:]):
        assert b == c and b > a

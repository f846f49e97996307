"""Tests for the SharedArray access layer (repro.tmk.shared)."""

import numpy as np
import pytest

from repro.tmk.api import tmk_run


def setup(space):
    space.alloc("m", (8, 1024), np.float32)
    space.alloc("vec", (100,), np.float64)


def ensure(steps):
    """Run an access's ensure part (``None`` = nothing to wait for)."""
    if steps is not None:
        yield from steps


def test_shape_dtype_name():
    def prog(tmk):
        yield from ()       # a generator program that never blocks
        m = tmk.array("m")
        return (m.shape, str(m.dtype), m.name)

    r = tmk_run(1, prog, setup)
    assert r.results[0] == ((8, 1024), "float32", "m")


def test_array_cached_per_tmk():
    def prog(tmk):
        yield from ()
        return tmk.array("m") is tmk.array("m")

    assert tmk_run(1, prog, setup).results[0]


def test_read_returns_view_of_region():
    def prog(tmk):
        m = tmk.array("m")
        yield from m.write_gen((slice(0, 2),), 3.0)
        region = yield from m.read_gen((slice(0, 2), slice(0, 4)))
        return region.shape, float(region.sum())

    r = tmk_run(1, prog, setup)
    assert r.results[0] == ((2, 4), 24.0)


def test_read_ellipsis_whole_array():
    def prog(tmk):
        m = tmk.array("m")
        return (yield from m.read_gen()).shape

    assert tmk_run(1, prog, setup).results[0] == (8, 1024)


def test_writable_steps_then_assign_through_the_view():
    def prog(tmk):
        m = tmk.array("m")
        yield from ensure(m.writable_steps((slice(2, 3),)))
        m.raw()[2:3] = 7.0
        again = m.writable_steps((slice(2, 3),))    # twinned: nothing left
        return float(m.raw()[2].sum()), again

    assert tmk_run(1, prog, setup).results[0] == (7.0 * 1024, None)


def test_scalar_region_write():
    def prog(tmk):
        v = tmk.array("vec")
        yield from v.write_gen((5,), 1.25)
        return float((yield from v.read_gen((5,))))

    assert tmk_run(1, prog, setup).results[0] == 1.25


def test_gather_scatter_roundtrip():
    def prog(tmk):
        m = tmk.array("m")
        idx = [0, 1500, 8 * 1024 - 1]
        yield from ensure(m.scatter_write_steps(idx))
        m.raw().reshape(-1)[idx] = [1.0, 2.0, 3.0]
        yield from ensure(m.gather_steps(idx))
        return [float(x) for x in m.raw().reshape(-1)[idx]]

    assert tmk_run(1, prog, setup).results[0] == [1.0, 2.0, 3.0]


def test_scatter_add_accumulates_duplicates():
    def prog(tmk):
        m = tmk.array("m")
        yield from ensure(m.scatter_add_steps([10, 10, 10]))
        np.add.at(m.raw().reshape(-1), [10, 10, 10], [1.0, 1.0, 1.0])
        yield from ensure(m.gather_steps([10]))
        return float(m.raw().reshape(-1)[10])

    assert tmk_run(1, prog, setup).results[0] == 3.0


def test_repr_mentions_name_and_node():
    def prog(tmk):
        yield from ()
        return repr(tmk.array("m"))

    out = tmk_run(1, prog, setup).results[0]
    assert "m" in out and "node=0" in out


def test_raw_is_uncoherent():
    """raw() performs no faults — remote data stays stale through it."""

    def prog(tmk):
        m = tmk.array("m")
        if tmk.pid == 0:
            yield from m.write_gen((slice(0, 1),), 9.0)
        yield from tmk.barrier_gen()
        if tmk.pid == 1:
            stale = float(m.raw()[0, 0])      # no coherence
            fresh = float((yield from m.read_gen((0, 0))))  # faults
            return (stale, fresh)

    r = tmk_run(2, prog, setup)
    assert r.results[1] == (0.0, 9.0)

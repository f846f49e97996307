"""Tests for the inspector-executor extension (repro.compiler.inspector)."""

import numpy as np
import pytest

from repro.api import RunRequest, execute
from repro.apps.common import get_app, signatures_close
from repro.compiler.inspector import (CommSchedule, ScheduleCache,
                                      footprint_fingerprint, inspect_reads)
from repro.compiler.xhpf import run_xhpf


# ---------------------------------------------------------------------- #
# schedule machinery

def test_inspect_reads_groups_by_owner():
    owner_bounds = [(0, 4), (4, 8), (8, 12), (12, 16)]
    flat = np.array([0, 1, 5, 9, 13, 14]) * 8      # rows 0,1,5,9,13,14
    out = inspect_reads(flat, 8, owned=(4, 8), owner_bounds=owner_bounds)
    assert sorted(out) == [0, 2, 3]
    assert out[0].tolist() == [0, 1]
    assert out[2].tolist() == [9]
    assert out[3].tolist() == [13, 14]


def test_inspect_reads_empty_when_local():
    out = inspect_reads(np.array([32, 33]), 8, owned=(0, 16),
                        owner_bounds=[(0, 16)])
    assert out == {}


def test_fingerprint_stable_and_discriminating():
    a = np.arange(100)
    assert footprint_fingerprint(a) == footprint_fingerprint(a.copy())
    b = a.copy()
    b[5] += 1
    assert footprint_fingerprint(a) != footprint_fingerprint(b)
    assert footprint_fingerprint(np.empty(0, np.int64)) == 0


def test_schedule_cache_reuse_and_invalidation():
    cache = ScheduleCache()
    sched = CommSchedule(fingerprint=42)
    cache.store("loop", sched)
    assert cache.lookup("loop", 42) is sched
    assert cache.lookup("loop", 43) is None
    assert cache.lookup("other", 42) is None
    assert cache.inspections == 1 and cache.reuses == 1


# ---------------------------------------------------------------------- #
# end-to-end on the irregular applications

@pytest.mark.parametrize("app", ["igrid", "nbf"])
@pytest.mark.parametrize("nprocs", [2, 4])
def test_inspector_matches_sequential(app, nprocs):
    spec = get_app(app)
    seq = execute(RunRequest(app, "seq", preset="test"))
    prog = spec.build_program(spec.params("test"))
    r = run_xhpf(prog, nprocs=nprocs, inspector_executor=True)
    assert signatures_close(seq.signature, r.scalars, rtol=1e-6), (
        f"{app}/{nprocs}: {r.scalars} vs {seq.signature}")


@pytest.mark.parametrize("app", ["igrid", "nbf"])
def test_inspector_moves_far_less_data_than_broadcast(app):
    spec = get_app(app)
    prog = spec.build_program(spec.params("test"))
    insp = run_xhpf(prog, nprocs=4, inspector_executor=True)
    bcast = run_xhpf(spec.build_program(spec.params("test")), nprocs=4)
    _el_i, wt_i = insp.window()
    _el_b, wt_b = bcast.window()
    assert wt_i.kilobytes < wt_b.kilobytes / 5


def test_inspector_runs_once_for_static_patterns():
    """The schedule is built on the first execution and reused after."""
    spec = get_app("nbf")
    prog = spec.build_program(spec.params("test"))
    hits = {}

    from repro.compiler import xhpf as xhpf_mod
    orig = xhpf_mod.XhpfExecutable._run_irregular_inspector

    def spy(self, env, comm, loop, views, scalars, cache):
        yield from orig(self, env, comm, loop, views, scalars, cache)
        hits[env.pid] = (cache.inspections, cache.reuses)

    xhpf_mod.XhpfExecutable._run_irregular_inspector = spy
    try:
        run_xhpf(prog, nprocs=4, inspector_executor=True)
    finally:
        xhpf_mod.XhpfExecutable._run_irregular_inspector = orig
    for pid, (inspections, reuses) in hits.items():
        assert inspections == 1, f"p{pid} re-inspected a static pattern"
        assert reuses >= 1


def test_inspector_deterministic():
    spec = get_app("igrid")
    runs = [run_xhpf(spec.build_program(spec.params("test")), nprocs=4,
                     inspector_executor=True)
            for _ in range(2)]
    assert runs[0].time == runs[1].time
    assert runs[0].stats.messages == runs[1].stats.messages

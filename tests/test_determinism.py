"""Determinism across every layer.

The engine's ``(time, jitter, seq)`` total order makes whole runs
bit-reproducible; these tests pin that property where it matters — results,
virtual times, message counts, byte counts, and DSM event counts must be
identical across repeated runs of every kind of workload.
"""

import numpy as np
import pytest

from repro.api import RunRequest, execute
from repro.compiler.spf import SpfOptions, run_spf
from repro.compiler.xhpf import run_xhpf
from repro.eval.constants import APPS
from repro.msg import Pvme
from repro.sim import Cluster
from repro.tmk.api import tmk_run
from tests.conftest import (irregular_program, lock_acquire, lock_release,
                            stencil_program)


def fingerprint(result):
    # a sim-level Cluster result has no document, so no canonical bytes
    dsm = getattr(result, "dsm_stats", None)
    return (result.time, tuple(result.proc_times), result.stats.messages,
            result.stats.bytes,
            tuple(sorted((k, tuple(v))
                         for k, v in result.stats.by_category.items())),
            tuple(vars(dsm).values()) if dsm else None)


def test_raw_cluster_deterministic():
    def prog(env):
        p = Pvme(env)
        for i in range(10):
            peer = (env.pid + 1) % env.nprocs
            yield from p.send_gen(peer, np.arange(i + 1.0), tag=i)
        got = []
        for i in range(10):
            got.append((yield from p.recv_gen(tag=i)))
        return float(sum(g.sum() for g in got))

    runs = [Cluster(nprocs=5).run(prog) for _ in range(3)]
    assert len({fingerprint(r) for r in runs}) == 1
    assert len({tuple(r.results) for r in runs}) == 1


def test_dsm_program_deterministic():
    def setup(space):
        space.alloc("x", (16, 512), np.float32)

    def prog(tmk):
        x = tmk.array("x")
        lo, hi = tmk.block_range(16)
        for it in range(4):
            cur = (yield from x.read_gen((slice(lo, hi),))).copy()
            yield from x.write_gen((slice(lo, hi),), cur + tmk.pid + it)
            yield from lock_acquire(tmk, it % 3)
            yield from lock_release(tmk, it % 3)
            yield from tmk.barrier_gen()
        return float((yield from x.read_gen()).sum())

    runs = [tmk_run(6, prog, setup) for _ in range(3)]
    assert len({fingerprint(r) for r in runs}) == 1


def test_compiled_backends_deterministic():
    spf = [run_spf(stencil_program(), nprocs=4,
                   options=SpfOptions(aggregate=True)) for _ in range(2)]
    assert fingerprint(spf[0]) == fingerprint(spf[1])
    xhpf = [run_xhpf(stencil_program(), nprocs=4) for _ in range(2)]
    assert fingerprint(xhpf[0]) == fingerprint(xhpf[1])


def test_irregular_accumulate_deterministic():
    runs = [run_spf(irregular_program(), nprocs=4) for _ in range(2)]
    assert fingerprint(runs[0]) == fingerprint(runs[1])
    assert runs[0].scalars == runs[1].scalars


@pytest.mark.parametrize("variant", ["spf", "tmk", "xhpf", "pvme"])
def test_harness_runs_deterministic(variant):
    a = execute(RunRequest("igrid", variant, nprocs=3, preset="test"))
    b = execute(RunRequest("igrid", variant, nprocs=3, preset="test"))
    assert a.canonical_bytes() == b.canonical_bytes()


def test_extension_paths_deterministic():
    opts = SpfOptions(tree_reductions=True, push_halos=True)
    a = run_spf(stencil_program(), nprocs=5, options=opts)
    b = run_spf(stencil_program(), nprocs=5, options=opts)
    assert fingerprint(a) == fingerprint(b)


# --------------------------------------------------------------------- #
# schedule seeds: same seed -> bit-identical run; any seed -> same answer


def _jacobi_hand():
    from repro.apps.common import get_app
    spec = get_app("jacobi")
    params = spec.params("test")

    def setup(space):
        spec.hand_tmk_setup(space, params)

    def main(tmk):
        return (yield from spec.hand_tmk(tmk, params))

    return spec, params, setup, main


def test_same_schedule_seed_is_bit_identical():
    """Cross-seed determinism regression: the seeded jitter must be a
    pure function of the seed — times, DSM stats, and computed values
    all repeat exactly."""
    _spec, _params, setup, main = _jacobi_hand()
    a = tmk_run(4, main, setup, schedule_seed=123)
    b = tmk_run(4, main, setup, schedule_seed=123)
    assert fingerprint(a) == fingerprint(b)
    assert a.results == b.results


def test_different_schedule_seeds_still_match_sequential(monkeypatch):
    """Seeds pick genuinely different event interleavings (the dispatch
    order of same-timestamp events changes), yet every one computes the
    sequential oracle's answer — the protocol is schedule-oblivious."""
    import heapq as real_heapq

    from repro.apps.common import get_app, signatures_close
    from repro.compiler.seq import run_sequential
    from repro.sim import engine

    class ProbeHeap:
        heappush = staticmethod(real_heapq.heappush)
        log = []

        @staticmethod
        def heappop(queue):
            item = real_heapq.heappop(queue)
            _at, _jitter, seq, _target = item
            ProbeHeap.log.append(seq)         # push sequence number
            return item

    monkeypatch.setattr(engine, "heapq", ProbeHeap)
    spec = get_app("jacobi")
    program = spec.build_program(spec.params("test"))
    _views, seq_scalars, _t = run_sequential(program)
    orders = []
    for seed in (None, 11, 17):
        ProbeHeap.log = []
        r = run_spf(program, nprocs=4, schedule_seed=seed)
        assert signatures_close(r.scalars, seq_scalars)
        orders.append(tuple(ProbeHeap.log))
    # the seeds really produced distinct dispatch orders
    assert len(set(orders)) >= 2


def test_seed_none_matches_historical_order():
    """``schedule_seed=None`` must leave the original (time, jitter,
    seq) total order untouched: jitter is 0 for every event."""
    _spec, _params, setup, main = _jacobi_hand()
    a = tmk_run(4, main, setup)
    b = tmk_run(4, main, setup, schedule_seed=None)
    assert fingerprint(a) == fingerprint(b)
    assert a.results == b.results


# ---------------------------------------------------------------------- #
# tie-order census: message-passing totals do not depend on which of two
# same-time events the engine dispatches first

SEEDS = (None, 1, 2)


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("variant", ["xhpf", "xhpf_ie", "pvme"])
@pytest.mark.parametrize("app", APPS)
def test_message_passing_totals_ignore_tie_order(app, variant, n):
    runs = [execute(RunRequest(app, variant, n, "test", schedule_seed=seed))
            for seed in SEEDS]
    assert all(r.ok for r in runs)
    assert len({(r.total_messages, r.total_kilobytes) for r in runs}) == 1


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "RunResult.window() takes the earliest-start and latest-stop stats "
    "snapshots, so a send at the same virtual time as a mark is counted or "
    "not by tie order: window messages read 254 or 255 while all 354 sends "
    "are the same; counting window traffic by send time fixes it"))
def test_shallow_xhpf_window_ignores_tie_order():
    runs = [execute(RunRequest("shallow", "xhpf", 4, "test",
                               schedule_seed=seed)) for seed in SEEDS]
    assert len({r.total_messages for r in runs}) == 1
    assert len({(r.messages, r.kilobytes) for r in runs}) == 1

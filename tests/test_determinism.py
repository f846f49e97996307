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
from repro.msg import Pvme
from repro.sim import Cluster
from repro.tmk.api import tmk_run
from tests.conftest import irregular_program, stencil_program


def fingerprint(result):
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
            p.send(peer, np.arange(i + 1.0), tag=i)
        got = [p.recv(tag=i) for i in range(10)]
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
            cur = x.read((slice(lo, hi),)).copy()
            x.write((slice(lo, hi),), cur + tmk.pid + it)
            tmk.lock_acquire(it % 3)
            tmk.lock_release(it % 3)
            tmk.barrier()
        return float(x.read().sum())

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
    assert (a.time, a.messages, a.kilobytes) == (b.time, b.messages,
                                                 b.kilobytes)
    assert a.signature == b.signature


def test_extension_paths_deterministic():
    opts = SpfOptions(tree_reductions=True, push_halos=True,
                      balance_loops=True)
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

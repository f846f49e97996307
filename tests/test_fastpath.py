"""The coherence fast path must be invisible to simulated behaviour.

``repro.tmk.faststate`` lets ``ensure_read``/``ensure_write`` return in
O(1) when per-node page masks prove no fault can occur.  These tests pin
the one property that makes the optimization safe: with the fast path on
or off (the ``TmkWorld.fastpath`` test seam), every virtual metric —
times, messages, bytes, results, final array contents — is bit-identical.
Wall clock is the only thing allowed to change.

Also covered here: the region->pages memo on ArrayHandle, the
gather/scatter index handling and the ``--stats`` CLI output.  Wall clock
is measured by ``benchmarks/perf/run.py`` alone; the virtual metrics of
five of its keys at n = 8 ``test`` are ``KERNEL_PINS`` in
``tests/test_engine.py``.
"""

import numpy as np
import pytest

from repro.api import RunRequest, execute
from repro.cli import main
from repro.tmk.api import TmkWorld, tmk_run
from repro.tmk.diagnostics import fastpath_summary
from repro.tmk.faststate import FastState
from repro.tmk.pagespace import SharedSpace, normalize_region
from repro.tmk.stats import DsmStats


def _virtual_fingerprint(r):
    # not canonical_bytes(): the fast-path counters (dsm.fastpath_*) sit in
    # the result document and differ on purpose between the two runs
    return (r.time, r.messages, r.kilobytes,
            tuple(sorted(r.signature.items())))


# ---------------------------------------------------------------------- #
# equivalence: fast path on vs off

@pytest.mark.parametrize("app,variant", [("jacobi", "spf"),
                                         ("igrid", "spf")])
def test_fastpath_equivalent_virtual_metrics(monkeypatch, app, variant):
    monkeypatch.setattr(TmkWorld, "fastpath", False)
    off = execute(RunRequest(app, variant, nprocs=4, preset="test",
                             seq_time=1.0))
    monkeypatch.setattr(TmkWorld, "fastpath", True)
    on = execute(RunRequest(app, variant, nprocs=4, preset="test",
                            seq_time=1.0))
    assert _virtual_fingerprint(off) == _virtual_fingerprint(on)
    assert off.dsm.fastpath_hits == 0 and off.dsm.fastpath_misses == 0
    assert on.dsm.fastpath_hits > 0
    # epoch bookkeeping runs unconditionally (masks stay maintained even
    # when consultation is disabled)
    assert off.dsm.epoch_bumps > 0 and on.dsm.epoch_bumps > 0
    assert off.dsm.epoch_bumps == on.dsm.epoch_bumps


def _bytes_setup(space):
    space.alloc("u", (6, 700), np.float64)


def _bytes_prog(tmk):
    u = tmk.array("u")
    lo, hi = tmk.block_range(6)
    for it in range(3):
        row = (yield from u.read_gen((slice(lo, hi),))).copy()
        yield from u.write_gen((slice(lo, hi),), row + tmk.pid + it)
        yield from tmk.barrier_gen()
        # repeated reads of the same region exercise the verdict cache
        yield from u.read_gen((slice(0, 2),))
        yield from u.read_gen((slice(0, 2),))
        yield from tmk.barrier_gen()
    if tmk.pid == 0:
        return (yield from u.read_gen()).tobytes()
    return None


def test_fastpath_equivalent_final_array_bytes(monkeypatch):
    monkeypatch.setattr(TmkWorld, "fastpath", False)
    off = tmk_run(3, _bytes_prog, _bytes_setup)
    monkeypatch.setattr(TmkWorld, "fastpath", True)
    on = tmk_run(3, _bytes_prog, _bytes_setup)
    assert off.results[0] == on.results[0]
    assert off.time == on.time
    assert off.stats.messages == on.stats.messages
    assert off.stats.bytes == on.stats.bytes


# ---------------------------------------------------------------------- #
# FastState unit behaviour

def test_faststate_masks_and_epochs():
    fs = FastState(4, enabled=True)
    assert not fs.write_ok_mask.any()
    fs.write_ok[2] = 1
    assert fs.write_ok_mask[2]          # the mask is a view of the column
    fs.remember_read(("a", ((0, 1),)))
    fs.remember_write(("a", ((0, 1),)))
    assert fs.read_verdicts and fs.write_verdicts
    epoch = fs.epoch
    fs.bump_epoch()
    assert fs.epoch == epoch + 1
    assert not fs.read_verdicts and not fs.write_verdicts

    fs.write_ok[1] = 1
    fs.invalidate_page(1)
    assert not fs.write_ok[1]
    fs.untwin_page(2)
    assert not fs.write_ok[2]

    fs.write_ok_mask[:] = True
    fs.close_interval()
    assert not any(fs.write_ok)


def test_faststate_verdict_cache_bounded():
    fs = FastState(1, enabled=True)
    for i in range(5000):
        fs.remember_read(("a", ((i, i + 1),)))
    from repro.tmk.faststate import _REGION_VERDICT_LIMIT
    assert len(fs.read_verdicts) <= _REGION_VERDICT_LIMIT + 1


# ---------------------------------------------------------------------- #
# region->pages memo on ArrayHandle

def test_pages_of_memoizes_and_is_readonly():
    space = SharedSpace()
    h = space.alloc("x", (16, 512), np.float32)
    nregion = normalize_region((slice(2, 5), slice(None)), h.shape)
    pages1, cached1 = h.pages_of(nregion)
    pages2, cached2 = h.pages_of(nregion)
    assert not cached1 and cached2
    assert pages1 is pages2
    assert not pages1.flags.writeable
    np.testing.assert_array_equal(
        pages1, h.region_pages((slice(2, 5), slice(None))))


# ---------------------------------------------------------------------- #
# gather/scatter index handling (single int64 conversion)

def _gs_setup(space):
    space.alloc("vec", (100,), np.float64)


def _gather(arr, idx):
    steps = arr.gather_steps(idx)
    if steps is not None:
        yield from steps
    return arr.raw().reshape(-1)[idx]


def test_gather_accepts_lists_and_arrays(monkeypatch):
    def prog(tmk):
        v = tmk.array("vec")
        yield from v.write_gen((slice(0, 100),), np.arange(100.0))
        a = yield from _gather(v, [3, 1, 4, 1, 5])
        b = yield from _gather(v, np.array([3, 1, 4, 1, 5], dtype=np.int32))
        return (a.tolist(), b.tolist())

    r = tmk_run(1, prog, _gs_setup)
    a, b = r.results[0]
    assert a == b == [3.0, 1.0, 4.0, 1.0, 5.0]


def test_scatter_add_with_numpy_indices():
    def prog(tmk):
        v = tmk.array("vec")
        yield from v.write_gen((slice(0, 100),), np.zeros(100))
        idx = np.array([7, 7, 9])
        steps = v.scatter_add_steps(idx)
        if steps is not None:
            yield from steps
        np.add.at(v.raw(), idx, np.array([1.0, 2.0, 3.0]))
        return (yield from _gather(v, [7, 9])).tolist()

    assert tmk_run(1, prog, _gs_setup).results[0] == [3.0, 3.0]


# ---------------------------------------------------------------------- #
# stats surface

def test_fastpath_summary_formats():
    stats = DsmStats()
    assert "inactive" in fastpath_summary(stats)
    stats.fastpath_hits = 30
    stats.fastpath_misses = 10
    stats.region_cache_hits = 25
    stats.epoch_bumps = 12
    text = fastpath_summary(stats)
    assert "30/40" in text and "75.0%" in text
    assert "25 region" in text and "12 acquire-edge" in text


def test_cli_run_stats_flag(capsys):
    assert main(["run", "jacobi", "tmk", "-n", "2", "--preset", "test",
                 "--stats"]) == 0
    out = capsys.readouterr().out
    assert "fast path:" in out

"""Tests for the sequential oracle (repro.compiler.seq)."""

import numpy as np
import pytest

from repro.compiler.ir import (Access, ArrayDecl, Full, Mark, ParallelLoop,
                               Program, Reduction, SeqBlock, Span, TimeLoop)
from repro.api import RunRequest, execute
from repro.compiler.seq import make_views, run_sequential, sequential_time
from repro.eval.constants import APPS
from tests.conftest import N, stencil_program, triangular_program


def test_make_views_zeroed_and_typed(stencil_prog):
    views = make_views(stencil_prog)
    assert set(views) == {"a", "b"}
    assert views["a"].dtype == np.float32
    assert views["a"].sum() == 0.0


def test_run_sequential_executes_kernels(stencil_prog):
    views, scalars, time = run_sequential(stencil_prog)
    assert views["a"][0, 0] == 1.0
    assert "sum" in scalars
    assert time > 0


def test_sequential_time_matches_run(stencil_prog):
    """The window: 3 iterations x (stencil + copy) x N iterations at 1 us;
    the init block before Mark('start') does not count."""
    expected = 3 * 2 * N * 1e-6
    assert sequential_time(stencil_prog) == pytest.approx(expected, rel=1e-12)
    _views, _scalars, measured = run_sequential(stencil_prog)
    assert measured == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("mode", ["sim", "model"])
@pytest.mark.parametrize("app", APPS)
def test_seq_result_time_is_the_seq_time_of_every_variant(app, mode):
    """One oracle time: the seq run's ``time`` is, bit for bit, the
    ``seq_time`` execute() gives every other variant of the app."""
    seq = execute(RunRequest(app, "seq", preset="test", mode=mode))
    assert seq.seq_time == seq.time > 0
    for variant in ("spf", "xhpf"):
        res = execute(RunRequest(app, variant, nprocs=2, preset="test",
                                 mode=mode))
        assert res.seq_time == seq.time, variant


def test_marks_restrict_measured_window():
    """Costs before Mark('start') do not count."""
    def kernel(views, lo, hi):
        return None

    loop = ParallelLoop("l", 4, kernel, cost_per_iter=1.0)
    prog = Program("p", arrays=[ArrayDecl("a", (4,))],
                   body=[loop, Mark("start"), loop, loop, Mark("stop")])
    assert sequential_time(prog) == pytest.approx(8.0)
    _v, _s, t = run_sequential(prog)
    assert t == pytest.approx(8.0)


def test_reductions_reset_per_instance():
    def kernel(views, lo, hi):
        return {"r": 1.0}

    loop = ParallelLoop("l", 4, kernel, reductions=[Reduction("r")])
    prog = Program("p", arrays=[ArrayDecl("a", (4,))],
                   body=[TimeLoop("t", 5, [loop])])
    _v, scalars, _t = run_sequential(prog)
    assert scalars["r"] == 1.0    # the last instance's value, not 5


def test_missing_partials_raise():
    loop = ParallelLoop("l", 4, lambda v, lo, hi: None,
                        reductions=[Reduction("r")])
    prog = Program("p", arrays=[ArrayDecl("a", (4,))], body=[loop])
    with pytest.raises(ValueError):
        run_sequential(prog)


def test_cyclic_loop_runs_full_range(triangular_prog):
    views, _s, _t = run_sequential(triangular_prog)
    v = views["v"].astype(np.float64)
    gram = v @ v.T
    assert np.allclose(gram, np.eye(v.shape[0]), atol=1e-4)


def test_accumulate_zeroed_per_instance():
    def kernel(views, lo, hi):
        views["acc"][lo:hi] += 1.0

    loop = ParallelLoop("l", 4, kernel, accumulate=["acc"],
                        writes=[Access("acc", (Span(),))],
                        merge_cost_per_iter=0.5)
    prog = Program("p", arrays=[ArrayDecl("acc", (4,), np.float64)],
                   body=[TimeLoop("t", 3, [loop])])
    views, _s, t = run_sequential(prog)
    assert views["acc"].tolist() == [1.0] * 4   # recomputed, not accumulated
    assert t == pytest.approx(3 * 0.5 * 4)       # merge cost charged


def test_seqblock_callable_cost():
    prog = Program("p", arrays=[ArrayDecl("a", (4,))],
                   body=[SeqBlock("s", lambda v: None,
                                  cost=lambda params: params["c"])],
                   params={"c": 2.5})
    assert sequential_time(prog) == 2.5

"""Tests for the speculative SPF backend (repro.compiler.spf_spec)."""

import numpy as np
import pytest

from repro.apps.common import get_app
from repro.compiler.ir import (Access, ArrayDecl, Full, Irregular, Mark,
                               ParallelLoop, Program, Reduction, SeqBlock,
                               Span)
from repro.compiler.seq import run_sequential
from repro.compiler.spf import SpfOptions
from repro.compiler.spf_spec import (compile_spf_spec, run_spf_spec)
from repro.tmk.api import tmk_run
from repro.tmk.pagespace import SharedSpace


def app_program(app, preset="test"):
    spec = get_app(app)
    return spec.build_program(spec.params(preset))


# ---------------------------------------------------------------------- #
# synthetic programs

def racy_program():
    """Every iteration scatter-writes x[0]: a true race the engine cannot
    see (Irregular footprint) — the speculation must fail and fall back."""

    def init(views):
        views["x"][:] = 1.0

    def fp(views, lo, hi):
        return np.array([0], dtype=np.int64)

    def racy_kernel(views, lo, hi):
        views["x"][0] += hi - lo

    def check_kernel(views, lo, hi):
        return {"xval": float(views["x"][lo:hi].sum(dtype=np.float64))}

    return Program(
        "racy",
        arrays=[ArrayDecl("x", (32, 1), np.float64, distribute=0)],
        body=[SeqBlock("init", init,
                       writes=[Access("x", (Full(), Full()))], cost=1e-6),
              Mark("start"),
              ParallelLoop("scatter", 32, racy_kernel,
                           reads=[Access("x", Irregular(fp))],
                           writes=[Access("x", Irregular(fp))],
                           cost_per_iter=1e-6),
              ParallelLoop("check", 32, check_kernel,
                           reads=[Access("x", (Span(), Full()))],
                           reductions=[Reduction("xval")],
                           cost_per_iter=1e-6),
              Mark("stop")])


def recurrence_program():
    """x[i] depends on x[i-1]: a confirmed loop-carried flow dependence
    the engine proves serial."""

    def init(views):
        views["x"][:] = 0.0
        views["x"][0] = 1.0

    def chain_kernel(views, lo, hi):
        x = views["x"]
        for r in range(max(lo, 1), hi):
            x[r] = 0.5 * x[r - 1] + 1.0

    def check_kernel(views, lo, hi):
        return {"tot": float(views["x"][lo:hi].sum(dtype=np.float64))}

    return Program(
        "chain",
        arrays=[ArrayDecl("x", (64, 1), np.float64, distribute=0)],
        body=[SeqBlock("init", init,
                       writes=[Access("x", (Full(), Full()))], cost=1e-6),
              Mark("start"),
              ParallelLoop("chain", 64, chain_kernel,
                           reads=[Access("x", (Span(-1, 0), Full()))],
                           writes=[Access("x", (Span(), Full()))],
                           cost_per_iter=1e-6),
              ParallelLoop("check", 64, check_kernel,
                           reads=[Access("x", (Span(), Full()))],
                           reductions=[Reduction("tot")],
                           cost_per_iter=1e-6),
              Mark("stop")])


# ---------------------------------------------------------------------- #
# policies

def test_policy_summary_covers_all_three():
    exe = compile_spf_spec(racy_program(), nprocs=4)
    pol = exe.policy_summary()
    assert "scatter" in pol["speculate"]
    assert "check" in pol["parallel"]
    exe = compile_spf_spec(recurrence_program(), nprocs=4)
    pol = exe.policy_summary()
    assert "chain" in pol["serial"]
    assert "check" in pol["parallel"]


def test_proven_serial_runs_master_only_and_matches_oracle():
    _v, seq, _t = run_sequential(recurrence_program())
    r = run_spf_spec(recurrence_program(), nprocs=4)
    assert r.scalars["tot"] == seq["tot"]
    stats = r.speculation
    assert stats["verdicts"]["chain"] == "proven-serial"
    assert stats["serial_instances"] > 0
    assert stats["speculations"] == 0


def test_misspeculation_falls_back_to_sequential_semantics():
    _v, seq, _t = run_sequential(racy_program())
    r = run_spf_spec(racy_program(), nprocs=4)
    stats = r.speculation
    assert stats["verdicts"]["scatter"] == "unknown"
    assert stats["speculations"] == 1
    assert stats["misspeculations"] == 1
    assert stats["commits"] == 0
    assert stats["monitored"]
    # the re-executed result is exactly what the serial fallback computes
    assert r.scalars["xval"] == seq["xval"]


def test_no_monitor_degrades_to_serial_never_unchecked():
    exe = compile_spf_spec(racy_program(), nprocs=4)

    def setup(space: SharedSpace):
        exe.setup_space(space)

    _v, seq, _t = run_sequential(racy_program())
    result = tmk_run(4, exe.run_on, setup, racecheck=False)
    stats = exe.last_spec_stats
    assert not stats["monitored"]
    assert stats["speculations"] == 0
    assert stats["serial_instances"] > 0
    assert result.results[0]["xval"] == seq["xval"]


def test_push_halos_is_force_disabled():
    exe = compile_spf_spec(app_program("jacobi"), nprocs=4,
                           options=SpfOptions(push_halos=True))
    assert not exe.options.push_halos


# ---------------------------------------------------------------------- #
# the acceptance run: igrid's unproven loop speculates and commits

def test_igrid_speculates_commits_and_is_bit_identical():
    program = app_program("igrid")
    _v, seq, _t = run_sequential(app_program("igrid"))
    r = run_spf_spec(program, nprocs=8)
    stats = r.speculation
    assert stats["verdicts"]["update"] == "unknown"
    assert "update" in stats["policies"]["speculate"]
    assert stats["speculations"] > 0
    assert stats["misspeculations"] == 0
    assert stats["commits"] == stats["speculations"]
    # bit-identical to the sequential oracle (signature scalars are
    # exact sums over the final arrays)
    for key, val in seq.items():
        assert r.scalars[key] == val, key


# ---------------------------------------------------------------------- #
# the run API surface

def test_execute_surfaces_speculation_and_hides_internal_racecheck():
    from repro import RunRequest, execute
    from repro.api.types import RunResult

    res = execute(RunRequest("igrid", "spf_spec", nprocs=4, preset="test"))
    assert isinstance(res.speculation, dict)
    assert res.speculation["verdicts"]["update"] == "unknown"
    assert res.speculation["misspeculations"] == 0
    # racecheck was forced internally (the misspeculation detector) but
    # the caller did not ask for a race report
    assert res.races is None
    # the new field serializes
    back = RunResult.from_json(res.to_json())
    assert back.speculation == res.speculation


def test_execute_spf_spec_matches_spf_on_regular_app():
    from repro import RunRequest, execute

    spec = execute(RunRequest("jacobi", "spf_spec", nprocs=4, preset="test"))
    spf = execute(RunRequest("jacobi", "spf", nprocs=4, preset="test"))
    assert spec.signature == spf.signature
    assert spec.speculation["speculations"] == 0
    assert spec.speculation["policies"]["serial"] == []

"""Tests for the compilation reports and the command-line interface."""

import pytest

from repro.cli import main
from repro.compiler.report import footprint_report, spf_report, xhpf_report
from repro.compiler.spf import SpfOptions
from tests.conftest import irregular_program, stencil_program, triangular_program


# ---------------------------------------------------------------------- #
# compilation reports

def test_spf_report_contents():
    text = spf_report(stencil_program(), nprocs=4)
    assert "SPF compilation report" in text
    assert "page-padded" in text
    assert "lock-protected shared scalar" in text
    assert "parallel stencil" in text
    assert "sequential 'init'" in text


def test_spf_report_reflects_options():
    text = spf_report(stencil_program(), nprocs=4,
                      options=SpfOptions(tree_reductions=True,
                                         fuse_loops=True))
    assert "combining tree" in text
    assert "tree-red" in text


def test_spf_report_shows_push_plan():
    text = spf_report(stencil_program(), nprocs=4,
                      options=SpfOptions(push_halos=True))
    assert "halo-push plan" in text
    assert "push a boundary rows" in text or "push a" in text


def test_spf_report_marks_irregular_units():
    text = spf_report(irregular_program(), nprocs=4)
    assert "on-demand element faults" in text


def test_xhpf_report_contents():
    text = xhpf_report(stencil_program(), nprocs=4)
    assert "owner-computes" in text
    assert "distributed BLOCK on dim 0" in text


def test_xhpf_report_flags_irregular_fallback():
    text = xhpf_report(irregular_program(), nprocs=4)
    assert "IRREGULAR" in text
    assert "broadcasts its whole partition" in text
    assert "accumulation buffers" in text


def test_xhpf_report_cyclic_distribution():
    text = xhpf_report(triangular_program(), nprocs=4)
    assert "CYCLIC" in text


def test_footprint_report():
    loop = next(iter(stencil_program().parallel_loops()))
    text = footprint_report(loop, 4, stencil_program())
    assert "p0:" in text and "p3:" in text
    assert "reads a" in text and "writes b" in text


def test_footprint_report_irregular():
    prog = irregular_program()
    loop = next(iter(prog.parallel_loops()))
    text = footprint_report(loop, 2, prog)
    assert "irregular (run-time footprint)" in text


# ---------------------------------------------------------------------- #
# CLI

def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "jacobi" in out and "irregular" in out and "spf_old" in out


def test_cli_run(capsys):
    assert main(["run", "jacobi", "pvme", "-n", "2",
                 "--preset", "test"]) == 0
    out = capsys.readouterr().out
    assert "jacobi" in out and "speedup" in out
    assert "paper's 8-processor speedup" in out


def test_cli_machine_override_is_checked_not_truncated():
    for bad in ("mp_packet_bytes=100.5", "latency=-1", "latency=fast"):
        with pytest.raises(SystemExit, match="bad --machine override"):
            main(["run", "jacobi", "spf", "-n", "2", "--preset", "test",
                  "--machine", bad])


def test_cli_run_dsm_prints_stats(capsys):
    assert main(["run", "jacobi", "tmk", "-n", "2", "--preset", "test"]) == 0
    out = capsys.readouterr().out
    assert "dsm:" in out


def test_cli_compare(capsys):
    assert main(["compare", "igrid", "-n", "2", "--preset", "test"]) == 0
    out = capsys.readouterr().out
    for variant in ("seq", "spf", "tmk", "xhpf", "pvme"):
        assert variant in out


def test_cli_explain(capsys):
    assert main(["explain", "nbf", "-n", "2", "--preset", "test"]) == 0
    out = capsys.readouterr().out
    assert "SPF compilation report" in out
    assert "XHPF compilation report" in out


def test_cli_explain_optimized(capsys):
    assert main(["explain", "jacobi", "--optimized", "-n", "2",
                 "--preset", "test"]) == 0
    out = capsys.readouterr().out
    assert "aggregate" in out


def test_cli_rejects_unknown_app():
    with pytest.raises(SystemExit):
        main(["run", "doom", "tmk"])


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        main([])


# ---------------------------------------------------------------------- #
# python -m repro lint

def test_cli_lint_single_app(capsys):
    assert main(["lint", "jacobi", "--no-traffic", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "jacobi" in out and "clean" in out


def test_cli_lint_strict_counts_warnings(capsys):
    # jacobi's test-size grid has sub-page chunks: false-sharing warnings
    assert main(["lint", "jacobi", "--no-traffic", "--quiet",
                 "--strict"]) == 1
    out = capsys.readouterr().out
    assert "warning" in out


def test_cli_lint_suppression_restores_strict(capsys):
    assert main(["lint", "jacobi", "--no-traffic", "--quiet", "--strict",
                 "--suppress", "false-sharing"]) == 0


def test_cli_lint_unknown_app(capsys):
    assert main(["lint", "doom"]) == 2
    assert "unknown application" in capsys.readouterr().err


def test_cli_lint_json_out(tmp_path, capsys):
    out_path = tmp_path / "lint.json"
    assert main(["lint", "jacobi", "--no-traffic", "--quiet",
                 "--out", str(out_path)]) == 0
    import json
    doc = json.loads(out_path.read_text())
    assert doc["ok"] is True and "jacobi" in doc["apps"]

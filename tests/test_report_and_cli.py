"""Tests for the compilation reports and the command-line interface."""

import socket

import pytest

from repro.cli import main
from repro.compiler.report import footprint_report, spf_report, xhpf_report
from repro.compiler.spf import SpfOptions
from tests.conftest import (irregular_program, parallel_loops,
                            stencil_program, triangular_program)


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
    loop = next(parallel_loops(stencil_program()))
    text = footprint_report(loop, 4, stencil_program())
    assert "p0:" in text and "p3:" in text
    assert "reads a" in text and "writes b" in text


def test_footprint_report_irregular():
    prog = irregular_program()
    loop = next(parallel_loops(prog))
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


def test_cli_machine_refuses_nprocs():
    """Nothing reads ``MachineModel.nprocs``: the override would be
    silently ignored, so it is refused and the real flag named."""
    for command in (["run", "jacobi", "spf", "-n", "2"],
                    ["sweep", "--apps", "jacobi", "--nodes", "8"]):
        with pytest.raises(SystemExit, match="-n/--nprocs"):
            main(command + ["--preset", "test", "--machine", "nprocs=5"])


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


def test_cli_racecheck_out_needs_cross_check(tmp_path, capsys):
    """``--out`` writes the cross-check verdict; without ``--cross-check``
    there is none, so the command is refused instead of ignoring it."""
    out_path = tmp_path / "verdict.json"
    with pytest.raises(SystemExit) as exc:
        main(["racecheck", "jacobi", "--seeds", "1", "--out", str(out_path)])
    assert exc.value.code == 2
    assert "--cross-check" in capsys.readouterr().err
    assert not out_path.exists()


def test_cli_fleet_with_no_reachable_host_exits_2(capsys):
    """A harness given --fleet that no host answers says so and exits 2,
    as `repro fleet` does, instead of a ConnectionError traceback."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()                      # nothing listens there now
    assert main(["sweep", "--apps", "jacobi", "--nodes", "8", "--quiet",
                 "--fleet", f"127.0.0.1:{port}"]) == 2
    assert capsys.readouterr().err \
        == f"fleet: no fleet host reachable: 127.0.0.1:{port}\n"

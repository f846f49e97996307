"""Tests for the reproduction driver (repro.eval.reproduce): its plan, its
report and its CLI command.  Everything here but the last test runs
nothing."""

import pathlib

import pytest

from repro.cli import main
from repro.eval.constants import APPS
from repro.eval.reproduce import (RESULT_ORDER, RESULTS_DIR, Reproduction,
                                  format_report, plan, request_key)


def test_result_order_covers_design_index():
    names = [name for name, _title, _render in RESULT_ORDER]
    # every experiment family from DESIGN.md's index appears, once, with
    # exactly one renderer
    for expected in ("table1_sequential", "fig1_regular_speedups",
                     "table2_regular_traffic", "fig2_irregular_speedups",
                     "table3_irregular_traffic", "sec23_interface",
                     "sec7_summary", "ext_scaling", "ext_inspector"):
        assert expected in names
    assert len(names) == len(set(names)) == 14
    assert all(callable(render) for _n, _t, render in RESULT_ORDER)


def test_default_directory_is_benchmarks_results():
    assert RESULTS_DIR.parts[-2:] == ("benchmarks", "results")
    assert (RESULTS_DIR / "table1_sequential.txt").exists()


def test_report_includes_lint_badges():
    from repro.eval.lintreport import lint_registry
    summary = lint_registry(apps=["jacobi", "igrid"], nprocs=4)
    assert summary.ok
    text = summary.format()
    assert "jacobi" in text and "clean" in text
    # irregular apps are lint-clean but traffic-unanalyzable
    assert summary.badge("igrid").startswith("clean")
    assert "unanalyzable" in text


# ---------------------------------------------------------------------- #
# the plan and the report (nothing runs)

@pytest.mark.parametrize("preset", ["bench", "test"])
def test_plan_runs_each_request_once(preset):
    requests = plan(preset)
    keys = [request_key(r) for r in requests]
    assert len(keys) == len(set(keys))
    # execute() fills in every oracle time: no planned request pins one
    assert all(r.seq_time is None for r in requests)
    assert {r.app for r in requests if r.variant == "seq"} == set(APPS)


def test_assemble_report_follows_result_order():
    doc = Reproduction("bench", results={}, table1={}, dispatch_units=(),
                       texts={name: f"TEXT OF {name}"
                              for name, _t, _r in RESULT_ORDER})
    text = format_report(doc)
    assert text.startswith("# Reproduction report")
    positions = [text.index(f"## {title}\n\n```\nTEXT OF {name}\n```")
                 for name, title, _render in RESULT_ORDER]
    assert positions == sorted(positions)
    assert "Static lint" not in text       # `repro lint` prints that


# ---------------------------------------------------------------------- #
# a real reproduction at the test preset, through the CLI

def test_cli_reproduce(tmp_path, capsys):
    assert main(["reproduce", "--preset", "test",
                 "--results-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("# Reproduction report")
    assert "Preset `test`" in captured.out
    written = sorted(p.stem for p in pathlib.Path(tmp_path).glob("*.txt"))
    assert written == sorted(name for name, _t, _r in RESULT_ORDER)
    assert (tmp_path / "ext_scaling.txt").read_text().startswith(
        "Extension — speedup vs processor count (test preset)")
    # every archive rendered from planned runs alone (an unplanned read is
    # a KeyError), and one progress line per completed run: each planned
    # request ran once
    runs = [line for line in captured.err.splitlines() if " n=" in line]
    assert len(runs) == len(plan("test"))


def test_a_wrong_signature_names_its_cell():
    """Every parallel result is held to its (app, preset) oracle; one
    planted wrong signature stops the reproduction, naming the cell."""
    from repro.api import RunResult
    from repro.eval.reproduce import check_signatures

    requests = [r for r in plan("test") if r.app == "jacobi"]
    results = [RunResult(app=r.app, variant=r.variant, nprocs=r.nprocs,
                         preset=r.preset, signature={"u": 1.0})
               for r in requests]
    check_signatures(requests, results)
    wrong = next(i for i, r in enumerate(requests)
                 if r.variant == "spf" and r.options)
    results[wrong] = RunResult(app="jacobi", variant="spf", nprocs=8,
                               preset="test", signature={"u": 1.0 + 2e-6})
    with pytest.raises(RuntimeError) as info:
        check_signatures(requests, results)
    assert str(info.value).startswith(
        f"jacobi/spf {requests[wrong].options} n=8 preset=test: ")

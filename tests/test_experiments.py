"""Tests for the evaluation harness and table formatters (repro.eval)."""

import pytest

from repro.api import RunRequest, execute
from repro.eval.constants import (APPS, IRREGULAR_APPS, PAPER, REGULAR_APPS,
                                  VARIANT_NAMES)
from repro.eval.reproduce import run_all_variants
from repro.eval.tables import (format_comparison, format_speedup_figure,
                               format_table1, format_traffic_table)


def test_paper_constants_complete():
    assert set(PAPER) == set(APPS)
    assert set(REGULAR_APPS) | set(IRREGULAR_APPS) == set(APPS)
    for app, nums in PAPER.items():
        assert nums.seq_time > 0
        for v in VARIANT_NAMES:
            assert v in nums.messages and v in nums.data_kb
            assert v in nums.speedups


def test_paper_headline_ratios_hold_in_constants():
    """The abstract's claims are consistent with the tabulated numbers."""
    for app in REGULAR_APPS:
        s = PAPER[app].speedups
        assert s["xhpf"] > s["spf"]
        assert s["pvme"] > s["spf"]
        assert s["tmk"] > s["spf"]
    for app in IRREGULAR_APPS:
        s = PAPER[app].speedups
        assert s["spf"] > s["xhpf"]
        assert s["pvme"] >= s["spf"]


def test_run_variant_seq():
    res = execute(RunRequest("jacobi", "seq", preset="test"))
    assert res.variant == "seq"
    assert res.nprocs == 1
    assert res.messages == 0
    assert res.speedup == 1.0
    assert "sig_u" in res.signature


def test_run_variant_rejects_unknown():
    with pytest.raises(ValueError):
        execute(RunRequest("jacobi", "mystery", preset="test"))


def test_run_variant_spf_opt_requires_recipe():
    with pytest.raises(ValueError):
        execute(RunRequest("igrid", "spf_opt", preset="test"))


def test_run_all_variants_shares_seq_time():
    out = run_all_variants("jacobi", nprocs=2, preset="test",
                           variants=["seq", "pvme"])
    assert out["pvme"].seq_time == out["seq"].time
    assert out["pvme"].speedup > 0


def test_run_all_variants_is_tier_independent():
    from repro.serve import RunService

    serial = run_all_variants("jacobi", nprocs=2, preset="test")
    with RunService(workers=2) as svc:
        pooled = run_all_variants("jacobi", nprocs=2, preset="test",
                                  service=svc)
    assert list(pooled) == list(serial)
    assert ([r.canonical_bytes() for r in pooled.values()]
            == [r.canonical_bytes() for r in serial.values()])


def test_variant_result_row_is_one_line():
    res = execute(RunRequest("jacobi", "pvme", nprocs=2, preset="test"))
    row = res.row()
    assert "\n" not in row
    assert "jacobi" in row and "pvme" in row


def test_speedup_uses_measured_window():
    res = execute(RunRequest("jacobi", "pvme", nprocs=2, preset="test"))
    # at this tiny size communication may outweigh compute; the point is
    # that the metrics are window-based and self-consistent
    assert res.speedup == pytest.approx(res.seq_time / res.time)
    assert res.messages <= res.total_messages


def test_format_table1():
    rows = {app: (PAPER[app].problem_size, PAPER[app].seq_time)
            for app in APPS}
    text = format_table1(rows)
    assert "Table 1" in text
    for app in APPS:
        assert app in text
    assert "~" in text    # estimated rows flagged


def test_format_speedup_figure():
    out = run_all_variants("jacobi", nprocs=2, preset="test")
    text = format_speedup_figure({"jacobi": out}, ["jacobi"], "Figure 1")
    assert "Figure 1" in text and "jacobi" in text
    assert "spf(paper)" in text


def test_format_speedup_figure_handles_missing_paper_value():
    out = run_all_variants("igrid", nprocs=2, preset="test")
    text = format_speedup_figure({"igrid": out}, ["igrid"], "Figure 2")
    assert "n/a" in text     # the unquoted hand-Tmk IGrid bar


def test_format_traffic_table():
    out = run_all_variants("jacobi", nprocs=2, preset="test")
    text = format_traffic_table({"jacobi": out}, ["jacobi"], "Table 2")
    assert "msgs paper" in text and "KB ours" in text


def test_format_comparison():
    line = format_comparison("jacobi spf speedup", 6.99, 7.01, "close")
    assert "6.99" in line and "7.01" in line and "close" in line


def test_xhpf_ie_variant():
    """The inspector-executor extension is addressable as a variant."""
    seq = execute(RunRequest("igrid", "seq", preset="test"))
    ie = execute(RunRequest("igrid", "xhpf_ie", nprocs=4, preset="test",
                            seq_time=seq.time))
    bc = execute(RunRequest("igrid", "xhpf", nprocs=4, preset="test",
                            seq_time=seq.time))
    assert ie.kilobytes < bc.kilobytes
    assert ie.variant == "xhpf_ie"

"""Text renderings of the paper's tables and figures, paper-vs-measured.

The benchmark harness prints these; EXPERIMENTS.md archives them.  We do
not expect absolute agreement (our substrate is a calibrated simulator and
the benchmark presets are scaled down) — the comparisons that matter are
the *orderings* and *ratios* the paper's conclusions rest on.
"""

from __future__ import annotations


from repro.eval.constants import PAPER, VARIANT_NAMES

__all__ = ["format_table1", "format_speedup_figure", "format_traffic_table",
           "format_comparison"]


def _fmt(val, width=9, prec=2) -> str:
    if val is None:
        return " " * (width - 3) + "n/a"
    if isinstance(val, float):
        return f"{val:{width}.{prec}f}"
    return f"{val:{width}d}"


def format_table1(rows: dict) -> str:
    """Table 1: data set sizes and sequential times.

    ``rows``: app -> (size_str, measured_seconds).
    """
    out = ["Table 1 — Data Set Sizes and Sequential Execution Time",
           f"{'Program':10s} {'Problem Size':34s} {'Paper(s)':>9s} "
           f"{'Ours(s)':>9s}"]
    for app, (size, seconds) in rows.items():
        paper = PAPER[app]
        mark = "~" if paper.seq_time_estimated else " "
        out.append(f"{app:10s} {size:34s} {mark}{paper.seq_time:8.1f} "
                   f"{seconds:9.2f}")
    out.append("(~ marks sequential seconds unreadable in the source scan; "
               "estimated)")
    return "\n".join(out)


def format_speedup_figure(results: dict, apps: list, title: str) -> str:
    """Figures 1/2: 8-processor speedups, four variants per application.

    ``results``: app -> {variant: RunResult}.
    """
    out = [title,
           f"{'Program':10s}" + "".join(
               f" {v + '(paper)':>13s} {v + '(ours)':>12s}"
               for v in VARIANT_NAMES)]
    for app in apps:
        paper = PAPER[app]
        row = f"{app:10s}"
        for v in VARIANT_NAMES:
            pval = paper.speedups.get(v)
            mval = results[app][v].speedup if v in results[app] else None
            row += f" {_fmt(pval, 13)} {_fmt(mval, 12)}"
        out.append(row)
    return "\n".join(out)


def format_traffic_table(results: dict, apps: list, title: str) -> str:
    """Tables 2/3: message totals and kilobyte totals."""
    out = [title]
    out.append(f"{'':10s}{'':10s}" + "".join(f" {v:>12s}" for v in VARIANT_NAMES))
    for app in apps:
        paper = PAPER[app]
        row_pm = f"{app:10s}{'msgs paper':>10s}"
        row_mm = f"{'':10s}{'msgs ours':>10s}"
        row_pd = f"{'':10s}{'KB paper':>10s}"
        row_md = f"{'':10s}{'KB ours':>10s}"
        for v in VARIANT_NAMES:
            row_pm += f" {_fmt(paper.messages.get(v), 12)}"
            row_pd += f" {_fmt(paper.data_kb.get(v), 12)}"
            res = results[app].get(v)
            row_mm += f" {_fmt(res.messages if res else None, 12)}"
            row_md += (f" {_fmt(round(res.kilobytes) if res else None, 12)}")
        out += [row_pm, row_mm, row_pd, row_md]
    return "\n".join(out)


def format_comparison(label: str, paper_value, measured_value,
                      note: str = "") -> str:
    return (f"{label:44s} paper={_fmt(paper_value)}  "
            f"ours={_fmt(measured_value)}  {note}")

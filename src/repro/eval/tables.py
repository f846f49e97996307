"""Text renderings of the paper's tables and figures, paper-vs-measured.

The formatters (``format_*``) lay out one table; :data:`RESULT_ORDER`
names each archive and the renderer that turns a
:class:`repro.eval.reproduce.Reproduction` into its text, and the
constants above the renderers name the runs the extension archives read
(the planner asks for exactly those).
``repro reproduce`` writes them under ``benchmarks/results/``;
EXPERIMENTS.md curates them.  We do not expect absolute agreement (our
substrate is a calibrated simulator and the benchmark presets are scaled
down) — the comparisons that matter are the *orderings* and *ratios* the
paper's conclusions rest on.
"""

from __future__ import annotations

from repro.api.types import machine_to_doc
from repro.eval.constants import (APPS, IRREGULAR_APPS, PAPER, REGULAR_APPS,
                                  SUMMARY_CLAIMS, VARIANT_NAMES)
from repro.sim.machine import SP2_MODEL

__all__ = ["format_table1", "format_speedup_figure", "format_traffic_table",
           "format_comparison", "RESULT_ORDER", "NPROCS", "HAND_OPT_APPS",
           "SCALING_COUNTS", "SCALING_RUNS", "ENHANCEMENTS", "INSPECTOR_APPS",
           "SENSITIVITY_PRESET", "SENSITIVITY_RUNS", "SENSITIVITY_MODELS",
           "interface_machinery", "fft_gap_recovered", "summary_ratios",
           "sensitivity_gaps"]


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


# ---------------------------------------------------------------------- #
# what the archives read

#: every run is on the paper's machine, an 8-node SP/2 (the scaling
#: extension alone varies it, over SCALING_COUNTS)
NPROCS = 8
#: Sections 5.1-5.4: the regular codes the paper hand-optimizes
HAND_OPT_APPS = ("jacobi", "shallow", "mgs", "fft3d")
#: E12: processor counts, and who is swept across them
SCALING_COUNTS = (2, 4, 8, 16)
SCALING_RUNS = [(app, variant) for app in ("jacobi", "igrid")
                for variant in ("spf", "xhpf")]
#: E14: the Section 8 enhancements, as SpfOptions overrides of ``spf``
ENHANCEMENTS = {
    "fft_tree": ("fft3d", dict(tree_reductions=True)),
    "jac_push": ("jacobi", dict(push_halos=True)),
    "jac_all": ("jacobi", dict(aggregate=True, fuse_loops=True,
                               tree_reductions=True, push_halos=True)),
}
#: E16: the irregular codes rerun with the inspector-executor
INSPECTOR_APPS = ("igrid", "nbf")
#: E15: the ablation's problem size (a preset of jacobi and igrid), its
#: runs, and the machine models it runs them under
SENSITIVITY_PRESET = "sensitivity"
SENSITIVITY_RUNS = (("igrid", "spf"), ("igrid", "xhpf"),
                    ("jacobi", "spf"), ("jacobi", "pvme"))


def _scaled(factor: float) -> dict:
    """SP2_MODEL with its network and DSM costs scaled by ``factor``."""
    return machine_to_doc(SP2_MODEL.with_(**{
        name: getattr(SP2_MODEL, name) * factor for name in (
            "latency", "byte_time", "send_overhead", "recv_overhead",
            "fault_overhead", "diff_create_overhead",
            "diff_apply_overhead")}))


SENSITIVITY_MODELS = {
    "fast (x0.5 costs)": _scaled(0.5),
    "calibrated SP/2": machine_to_doc(SP2_MODEL),
    "slow (x2 costs)": _scaled(2.0),
}


# ---------------------------------------------------------------------- #
# derived numbers (rendered here, asserted by benchmarks/test_*.py)

def interface_machinery(doc) -> tuple:
    """Section 2.3: fork-join messages per parallel loop, ``(original,
    improved)``.  The data traffic (boundary faults) is identical under
    either interface, so per-loop machinery = (window messages - data
    messages) / loops for the improved build, and the original's
    machinery follows by delta."""
    from repro.apps.jacobi import PRESETS

    imp, old = doc.result("jacobi", "spf"), doc.result("jacobi", "spf_old")
    loops = 2 * PRESETS[doc.preset]["iters"]     # timed window dispatches
    imp_sync = imp.categories.get("sync", (0, 0))[0]
    imp_data = imp.messages - imp_sync
    return (old.messages - imp_data) / loops, imp_sync / loops


def fft_gap_recovered(doc) -> float:
    """Section 5.4: the fraction of the SPF-to-PVMe gap that FFT's data
    aggregation recovers."""
    spf, opt, pvme = (doc.result("fft3d", v)
                      for v in ("spf", "spf_opt", "pvme"))
    return (opt.speedup - spf.speedup) / (pvme.speedup - spf.speedup)


def summary_ratios(doc) -> dict:
    """Section 7's speedup ratios, one entry per app, keyed as
    :data:`~repro.eval.constants.SUMMARY_CLAIMS`."""
    out = {claim: [] for claim in SUMMARY_CLAIMS}
    for app in APPS:
        r = {v: doc.result(app, v).speedup for v in VARIANT_NAMES}
        if app in REGULAR_APPS:
            out["regular_xhpf_over_spf"].append(r["xhpf"] / r["spf"])
            out["regular_pvme_over_spf"].append(r["pvme"] / r["spf"])
        else:
            out["irregular_spf_over_xhpf"].append(r["spf"] / r["xhpf"])
            out["irregular_pvme_over_spf"].append(r["pvme"] / r["spf"])
        out["tmk_over_spf"].append(r["tmk"] / r["spf"])
    return out


def sensitivity_gaps(doc) -> list:
    """E15: ``(label, IGrid DSM/XHPF, Jacobi PVMe/DSM)`` per machine
    model, cheapest communication first."""
    out = []
    for label, machine in SENSITIVITY_MODELS.items():
        def speedup(app, variant):
            return doc.result(app, variant, preset=SENSITIVITY_PRESET,
                              machine=machine).speedup
        out.append((label, speedup("igrid", "spf") / speedup("igrid", "xhpf"),
                    speedup("jacobi", "pvme") / speedup("jacobi", "spf")))
    return out


# ---------------------------------------------------------------------- #
# one renderer per archive (benchmarks/results/NAME.txt)

def _per_app(fmt, apps, title):
    """Figures 1/2 and Tables 2/3: ``fmt`` over each app's four variants."""
    return lambda doc: fmt({app: doc.variants(app) for app in apps}, apps,
                           title)


def _sec23_interface(doc) -> str:
    n = NPROCS
    imp, old = doc.result("jacobi", "spf"), doc.result("jacobi", "spf_old")
    old_machinery, imp_machinery = interface_machinery(doc)
    return "\n".join([
        "Section 2.3 — fork-join interface ablation (Jacobi, "
        f"{n} processors, timed window)",
        format_comparison("fork-join msgs per loop (original)",
                          8 * (n - 1), round(old_machinery, 1)),
        format_comparison("fork-join msgs per loop (improved)",
                          2 * (n - 1), round(imp_machinery, 1)),
        format_comparison("window time (s), original",
                          None, round(old.time, 3)),
        format_comparison("window time (s), improved",
                          None, round(imp.time, 3)),
        f"speedup: original {old.speedup:.2f} -> improved "
        f"{imp.speedup:.2f}",
    ])


def _sec5_hand_optimizations(doc) -> str:
    lines = ["Sections 5.1-5.4 — hand-applied optimizations on the "
             "SPF-generated programs"]
    for app in HAND_OPT_APPS:
        spf, opt, tmk, pvme = (doc.result(app, v)
                               for v in ("spf", "spf_opt", "tmk", "pvme"))
        paper = PAPER[app]
        lines.append(
            f"{app:8s} spf={spf.speedup:5.2f} -> opt={opt.speedup:5.2f} "
            f"(paper {paper.speedups['spf']} -> {paper.hand_opt_speedup}); "
            f"tmk={tmk.speedup:5.2f} pvme={pvme.speedup:5.2f}  "
            f"[{paper.hand_opt_note}]")
    return "\n".join(lines)


def _sec54_fft_aggregation(doc) -> str:
    spf, opt = doc.result("fft3d", "spf"), doc.result("fft3d", "spf_opt")
    return "\n".join([
        "Section 5.4 — FFT data aggregation",
        format_comparison("SPF speedup", PAPER["fft3d"].speedups["spf"],
                          round(spf.speedup, 2)),
        format_comparison("SPF+aggregation speedup",
                          PAPER["fft3d"].hand_opt_speedup,
                          round(opt.speedup, 2)),
        f"fraction of the PVMe gap recovered: {fft_gap_recovered(doc):.0%} "
        f"(paper: {(5.05 - 2.65) / (5.12 - 2.65):.0%})",
    ])


def _sec5_barrier_elimination(doc) -> str:
    plain_units, fused_units = doc.dispatch_units
    return (f"Shallow dispatch units per run: {plain_units} plain, "
            f"{fused_units} with loop fusion "
            f"(each unit saved eliminates one barrier pair)")


def _sec7_summary(doc) -> str:
    lines = ["Section 7 — summary ratios (ours vs the paper's ranges)"]
    for claim, r in summary_ratios(doc).items():
        label, lo, hi = SUMMARY_CLAIMS[claim]
        lines.append(f"{label:28s} {min(r):.2f}x..{max(r):.2f}x "
                     f"(paper {lo}..{hi:.2f})")
    return "\n".join(lines)


def _ext_scaling(doc) -> str:
    lines = [f"Extension — speedup vs processor count ({doc.preset} "
             f"preset)"]
    for app, variant in SCALING_RUNS:
        lines.append(f"{app:8s} {variant:5s}: " + "  ".join(
            f"n={n}:{doc.result(app, variant, nprocs=n).speedup:5.2f}"
            for n in SCALING_COUNTS))
    return "\n".join(lines)


def _ext_enhancements(doc) -> str:
    res = {name: doc.result(app, "spf", options=options)
           for name, (app, options) in ENHANCEMENTS.items()}
    fft, jac = doc.result("fft3d", "spf"), doc.result("jacobi", "spf")
    pvme = doc.result("jacobi", "pvme")
    return "\n".join([
        "Section 8 extensions — measured on the simulated SP/2",
        f"FFT   : spf {fft.speedup:5.2f} -> "
        f"+tree reductions {res['fft_tree'].speedup:5.2f}",
        f"Jacobi: spf {jac.speedup:5.2f} -> "
        f"+halo push {res['jac_push'].speedup:5.2f} -> "
        f"+all enhancements {res['jac_all'].speedup:5.2f} "
        f"(hand-coded PVMe {pvme.speedup:5.2f})"])


def _ext_sensitivity(doc) -> str:
    lines = [f"Extension — sensitivity to the machine model "
             f"({NPROCS} processors)"]
    for label, irr, reg in sensitivity_gaps(doc):
        lines.append(f"{label:20s} IGrid DSM/XHPF = {irr:5.2f}x   "
                     f"Jacobi PVMe/DSM = {reg:5.2f}x")
    return "\n".join(lines)


def _ext_inspector(doc) -> str:
    lines = ["Extension — inspector-executor (CHAOS-style) vs the DSM"]
    for app in INSPECTOR_APPS:
        spf, xhpf, insp, pvme = (doc.result(app, v)
                                 for v in ("spf", "xhpf", "xhpf_ie", "pvme"))
        lines.append(
            f"{app:6s} speedups: XHPF bcast-all {xhpf.speedup:5.2f}, "
            f"XHPF+inspector {insp.speedup:5.2f}, "
            f"SPF/Tmk {spf.speedup:5.2f}, PVMe {pvme.speedup:5.2f}")
        lines.append(
            f"       window data: bcast-all {xhpf.kilobytes:9.0f} KB "
            f"-> inspector {insp.kilobytes:9.0f} KB")
    return "\n".join(lines)


#: the fourteen archives (benchmarks/results/NAME.txt), in report order:
#: ``(name, title, renderer)``
RESULT_ORDER = [
    ("table1_sequential", "E1 — Table 1: sizes and sequential times",
     lambda doc: format_table1(doc.table1)),
    ("fig1_regular_speedups", "E2 — Figure 1: regular speedups",
     _per_app(format_speedup_figure, REGULAR_APPS,
              "Figure 1 — 8-Processor Speedups, Regular Applications")),
    ("table2_regular_traffic", "E3 — Table 2: regular traffic",
     _per_app(format_traffic_table, REGULAR_APPS,
              "Table 2 — Message Totals and Data Totals (KB), Regular "
              "Applications")),
    ("fig2_irregular_speedups", "E4 — Figure 2: irregular speedups",
     _per_app(format_speedup_figure, IRREGULAR_APPS,
              "Figure 2 — 8-Processor Speedups, Irregular Applications")),
    ("table3_irregular_traffic", "E5 — Table 3: irregular traffic",
     _per_app(format_traffic_table, IRREGULAR_APPS,
              "Table 3 — Message Totals and Data Totals (KB), Irregular "
              "Applications")),
    ("sec23_interface", "E6 — §2.3: improved fork-join interface",
     _sec23_interface),
    ("sec5_hand_optimizations", "E7–E10 — §5: hand optimizations",
     _sec5_hand_optimizations),
    ("sec54_fft_aggregation", "E10 — §5.4: FFT aggregation detail",
     _sec54_fft_aggregation),
    ("sec5_barrier_elimination", "E13 — barrier elimination",
     _sec5_barrier_elimination),
    ("sec7_summary", "E11 — §7: summary ratios", _sec7_summary),
    ("ext_scaling", "E12 — extension: processor scaling", _ext_scaling),
    ("ext_section8_enhancements", "E14 — extension: §8 enhancements",
     _ext_enhancements),
    ("ext_sensitivity", "E15 — ablation: model sensitivity",
     _ext_sensitivity),
    ("ext_inspector", "E16 — extension: inspector-executor", _ext_inspector),
]

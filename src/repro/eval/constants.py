"""Every number the paper reports, as data.

Sources (all from the paper text):

* Table 1 — data set sizes and sequential execution times.  The OCR of the
  paper loses the Jacobi and Shallow rows' seconds; those two are **our
  estimates** (flagged ``estimated``), chosen to be consistent with the
  per-element costs implied by the readable rows and with mid-90s POWER2
  stencil throughput.  They only scale the compute/communication ratio.
* Figure 1 / Figure 2 — 8-processor speedups (the exact values are quoted
  in the running text of Sections 5 and 6).  The hand-coded TreadMarks bar
  for IGrid is visible in Figure 2 but not quoted; ``None`` marks it.
* Tables 2 and 3 — message totals and kilobyte totals per program.
* Sections 5.1–5.4 — speedups after hand-applied optimizations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["PAPER", "PaperNumbers", "APPS", "REGULAR_APPS", "IRREGULAR_APPS",
           "VARIANT_NAMES"]

APPS = ["jacobi", "shallow", "mgs", "fft3d", "igrid", "nbf"]
REGULAR_APPS = ["jacobi", "shallow", "mgs", "fft3d"]
IRREGULAR_APPS = ["igrid", "nbf"]
#: the four bars of the paper's Figures 1/2, in its order
VARIANT_NAMES = ("spf", "tmk", "xhpf", "pvme")


@dataclass(frozen=True)
class PaperNumbers:
    """All reported numbers for one application (8 processors)."""

    problem_size: str
    seq_time: float                  # Table 1, seconds
    seq_time_estimated: bool = False
    speedups: dict = field(default_factory=dict)    # variant -> speedup
    messages: dict = field(default_factory=dict)    # variant -> count
    data_kb: dict = field(default_factory=dict)     # variant -> kilobytes
    hand_opt_speedup: float = 0.0    # Sections 5.1-5.4
    hand_opt_note: str = ""


PAPER: dict = {
    "jacobi": PaperNumbers(
        problem_size="2048 x 2048, 100 iterations",
        seq_time=55.0, seq_time_estimated=True,
        speedups={"spf": 6.99, "tmk": 7.13, "xhpf": 7.39, "pvme": 7.55},
        messages={"spf": 8538, "tmk": 8407, "xhpf": 4207, "pvme": 1400},
        data_kb={"spf": 989, "tmk": 862, "xhpf": 11458, "pvme": 11469},
        hand_opt_speedup=7.23,
        hand_opt_note="data aggregation (vs 7.55 hand-coded PVMe)",
    ),
    "shallow": PaperNumbers(
        problem_size="1024 x 1024, 50 iterations",
        seq_time=40.0, seq_time_estimated=True,
        speedups={"spf": 5.71, "tmk": 6.21, "xhpf": 6.60, "pvme": 6.77},
        messages={"spf": 13034, "tmk": 11767, "xhpf": 7792, "pvme": 1985},
        data_kb={"spf": 10814, "tmk": 10400, "xhpf": 18407, "pvme": 7328},
        hand_opt_speedup=5.96,
        hand_opt_note="loop merging + data aggregation (vs 6.21 hand Tmk)",
    ),
    "mgs": PaperNumbers(
        problem_size="1024 x 1024",
        seq_time=56.4,
        speedups={"spf": 3.35, "tmk": 4.19, "xhpf": 5.06, "pvme": 6.55},
        messages={"spf": 57283, "tmk": 30457, "xhpf": 38905, "pvme": 7168},
        data_kb={"spf": 59724, "tmk": 55681, "xhpf": 29430, "pvme": 29360},
        hand_opt_speedup=5.09,
        hand_opt_note="merge sync+data, broadcast ith vector (from 4.19 "
                      "hand Tmk; applied to the hand-coded program)",
    ),
    "fft3d": PaperNumbers(
        problem_size="128 x 128 x 64, 5 timed iterations",
        seq_time=37.7,
        speedups={"spf": 2.65, "tmk": 3.06, "xhpf": 4.44, "pvme": 5.12},
        messages={"spf": 52818, "tmk": 36477, "xhpf": 33913, "pvme": 1155},
        data_kb={"spf": 103228, "tmk": 74107, "xhpf": 102763, "pvme": 73401},
        hand_opt_speedup=5.05,
        hand_opt_note="data aggregation (vs 5.12 hand-coded PVMe)",
    ),
    "igrid": PaperNumbers(
        problem_size="500 x 500, 19 timed iterations",
        seq_time=42.6,
        speedups={"spf": 7.54, "tmk": None, "xhpf": 3.85, "pvme": 7.88},
        messages={"spf": 3806, "tmk": 1246, "xhpf": 34769, "pvme": 320},
        data_kb={"spf": 7374, "tmk": 131, "xhpf": 140001, "pvme": 640},
    ),
    "nbf": PaperNumbers(
        problem_size="32K molecules, 20 iterations",
        seq_time=63.9,
        speedups={"spf": 5.31, "tmk": 5.86, "xhpf": 3.85, "pvme": 6.18},
        messages={"spf": 14836, "tmk": 13194, "xhpf": 45895, "pvme": 960},
        data_kb={"spf": 1543, "tmk": 228, "xhpf": 163775, "pvme": 31457},
    ),
}

# Summary claims of Section 7 / the abstract: which speedup ratio, and the
# paper's range of it (lowest, highest) over the apps it covers
SUMMARY_CLAIMS = {
    "regular_xhpf_over_spf": ("regular: XHPF over SPF/Tmk", 1.055, 1.40),
    "regular_pvme_over_spf": ("regular: PVMe over SPF/Tmk", 1.075, 1.49),
    "irregular_spf_over_xhpf": ("irregular: SPF/Tmk over XHPF", 1.38, 1.89),
    "irregular_pvme_over_spf": ("irregular: PVMe over SPF/Tmk", 1.044, 1.16),
    "tmk_over_spf": ("hand Tmk over SPF/Tmk", 1.02, 1.20),
}

"""E2 — Figure 1: 8-processor speedups for the regular applications.

Reproduced claims (Section 5): for every regular application the ordering
is SPF/Tmk <= hand-Tmk <= XHPF-or-PVMe, message passing wins on regular
codes, and the hand-coded variants beat their compiler-generated
counterparts.  Absolute speedups land near the paper's (the compute costs
and machine model are calibrated, not fitted per-experiment).
"""

import pytest

from repro.eval.constants import PAPER, REGULAR_APPS


def test_figure1(doc):
    for app in REGULAR_APPS:
        r = {v: doc.result(app, v).speedup for v in ("spf", "tmk", "xhpf",
                                                     "pvme")}
        # the paper's orderings
        assert r["xhpf"] > r["spf"], f"{app}: XHPF must beat SPF/Tmk"
        assert r["pvme"] > r["spf"], f"{app}: PVMe must beat SPF/Tmk"
        assert r["pvme"] >= r["xhpf"] * 0.95, (
            f"{app}: hand MP should not lose clearly to compiled MP")
        assert r["tmk"] >= r["spf"] * 0.98, (
            f"{app}: hand shared memory should not lose to compiled")


@pytest.mark.parametrize("app", REGULAR_APPS)
def test_speedups_within_band(app, doc):
    """Each measured speedup within a generous band of the paper's bar."""
    for variant in ("spf", "tmk", "xhpf", "pvme"):
        paper = PAPER[app].speedups[variant]
        ours = doc.result(app, variant).speedup
        assert 0.5 * paper < ours < min(1.8 * paper, 8.05), (
            f"{app}/{variant}: {ours:.2f} vs paper {paper}")

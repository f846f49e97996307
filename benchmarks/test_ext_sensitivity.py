"""E15 (extension) — sensitivity of the conclusions to the machine model.

The paper's caveat: results hold "at least for this environment".  The
cost model here is calibrated, not measured, so this ablation re-runs the
headline comparisons (at jacobi's and igrid's ``sensitivity`` preset)
under a 2x-faster and a 2x-slower network+DSM than the calibration and
checks which conclusions are calibration-robust:

* the irregular reversal (DSM beats XHPF on IGrid) holds at every point —
  it is a *data volume* effect, not a latency artifact;
* message passing's regular-code win (PVMe >= SPF/Tmk on Jacobi) also
  holds throughout, and the DSM's deficit widens as messaging gets more
  expensive (the DSM sends several messages where MP sends one).
"""

from repro.eval.tables import sensitivity_gaps


def test_model_sensitivity(doc):
    gaps = sensitivity_gaps(doc)
    for label, irr, reg in gaps:
        assert irr > 1.0, f"irregular reversal must survive: {label}"
        assert reg >= 1.0, f"regular MP win must survive: {label}"
    # the DSM's regular-code deficit widens as communication gets dearer
    reg_by_cost = [reg for _label, _irr, reg in gaps]
    assert reg_by_cost[0] <= reg_by_cost[-1]

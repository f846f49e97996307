"""E12 (extension) — processor scaling.

Section 8: "we ... expect more gains in performance when scaling to a
large number of processors."  This extension sweeps processor counts for
one regular and one irregular application and records how the variants'
gap evolves: the DSM's irregular-code advantage over XHPF *grows* with
processor count (broadcast volume scales with n, on-demand traffic with
the boundary).
"""

from repro.eval.tables import SCALING_COUNTS, SCALING_RUNS


def test_scaling(doc):
    for app, variant in SCALING_RUNS:
        by_n = {n: doc.result(app, variant, nprocs=n)
                for n in SCALING_COUNTS}
        # more processors must not reduce speedup at these sizes
        assert by_n[8].speedup > by_n[2].speedup, (app, variant)

    # the irregular DSM advantage grows with processor count
    gap = {n: doc.result("igrid", "spf", nprocs=n).speedup
           / doc.result("igrid", "xhpf", nprocs=n).speedup
           for n in SCALING_COUNTS}
    assert gap[8] > gap[2], f"DSM/XHPF gap should grow: {gap}"

"""E6 — Section 2.3: the improved compiler-runtime interface.

The paper: the original fork-join implementation costs 8(n-1) messages per
parallel loop (two barriers plus two control-page faults per worker); the
improved one-to-all/all-to-one interface with piggybacked control variables
costs 2(n-1), "and has a significant effect on execution time".

The data traffic (boundary faults) is identical under either interface, so
per-loop fork-join machinery = (window messages - data messages) / loops
for the improved build, and the original's machinery follows by delta
(``repro.eval.tables.interface_machinery``).
"""

from repro.eval.tables import NPROCS, interface_machinery


def test_interface_ablation(doc):
    imp, old = doc.result("jacobi", "spf"), doc.result("jacobi", "spf_old")
    old_machinery, imp_machinery = interface_machinery(doc)

    assert abs(imp_machinery - 2 * (NPROCS - 1)) < 1.0, (
        f"improved interface must cost 2(n-1) per loop, got "
        f"{imp_machinery:.1f}")
    assert abs(old_machinery - 8 * (NPROCS - 1)) < 0.15 * 8 * (NPROCS - 1), (
        f"original interface should cost ~8(n-1) per loop, got "
        f"{old_machinery:.1f}")
    assert old.time > imp.time, "the improvement must show in time"

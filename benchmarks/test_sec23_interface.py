"""E6 — Section 2.3: the improved compiler-runtime interface.

The paper: the original fork-join implementation costs 8(n-1) messages per
parallel loop (two barriers plus two control-page faults per worker); the
improved one-to-all/all-to-one interface with piggybacked control variables
costs 2(n-1), "and has a significant effect on execution time".

The data traffic (boundary faults) is identical under either interface, so
per-loop fork-join machinery = (window messages - data messages) / loops
for the improved build, and the original's machinery follows by delta.
"""

from repro.eval.tables import format_comparison

from conftest import NPROCS, PRESET, archive, one_variant, runner  # noqa: F401


def test_interface_ablation(runner):
    def experiment():
        return one_variant("jacobi", "spf"), one_variant("jacobi", "spf_old")

    imp, old = runner(experiment)
    from repro.apps.jacobi import PRESETS
    loops = 2 * PRESETS[PRESET]["iters"]     # timed window dispatches

    imp_sync = imp.categories.get("sync", (0, 0))[0]
    imp_machinery = imp_sync / loops
    # original = everything beyond the improved build's data traffic
    imp_data = imp.messages - imp_sync
    old_machinery = (old.messages - imp_data) / loops

    lines = [
        "Section 2.3 — fork-join interface ablation (Jacobi, "
        f"{NPROCS} processors, timed window)",
        format_comparison("fork-join msgs per loop (original)",
                          8 * (NPROCS - 1), round(old_machinery, 1)),
        format_comparison("fork-join msgs per loop (improved)",
                          2 * (NPROCS - 1), round(imp_machinery, 1)),
        format_comparison("window time (s), original",
                          None, round(old.time, 3)),
        format_comparison("window time (s), improved",
                          None, round(imp.time, 3)),
        f"speedup: original {old.speedup:.2f} -> improved "
        f"{imp.speedup:.2f}",
    ]
    archive("sec23_interface", "\n".join(lines))

    assert abs(imp_machinery - 2 * (NPROCS - 1)) < 1.0, (
        f"improved interface must cost 2(n-1) per loop, got "
        f"{imp_machinery:.1f}")
    assert abs(old_machinery - 8 * (NPROCS - 1)) < 0.15 * 8 * (NPROCS - 1), (
        f"original interface should cost ~8(n-1) per loop, got "
        f"{old_machinery:.1f}")
    assert old.time > imp.time, "the improvement must show in time"

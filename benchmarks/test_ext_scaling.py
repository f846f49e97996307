"""E12 (extension) — processor scaling.

Section 8: "we ... expect more gains in performance when scaling to a
large number of processors."  This extension sweeps processor counts for
one regular and one irregular application and records how the variants'
gap evolves: the DSM's irregular-code advantage over XHPF *grows* with
processor count (broadcast volume scales with n, on-demand traffic with
the boundary).
"""

from repro.api import RunRequest, execute

from conftest import PRESET, archive, runner  # noqa: F401

COUNTS = [2, 4, 8, 16]


def sweep(app, variant, seq_time):
    return {n: execute(RunRequest(app, variant, nprocs=n, preset=PRESET,
                                  seq_time=seq_time))
            for n in COUNTS}


def test_scaling(runner):
    def experiment():
        out = {}
        for app in ("jacobi", "igrid"):
            seq = execute(RunRequest(app, "seq", preset=PRESET))
            out[app] = {v: sweep(app, v, seq.time)
                        for v in ("spf", "xhpf")}
        return out

    res = runner(experiment)
    lines = ["Extension — speedup vs processor count (bench preset)"]
    for app, by_variant in res.items():
        for variant, by_n in by_variant.items():
            row = f"{app:8s} {variant:5s}: " + "  ".join(
                f"n={n}:{by_n[n].speedup:5.2f}" for n in COUNTS)
            lines.append(row)
    archive("ext_scaling", "\n".join(lines))

    for app, by_variant in res.items():
        for variant, by_n in by_variant.items():
            # more processors must not reduce speedup at these sizes
            assert by_n[8].speedup > by_n[2].speedup, (app, variant)

    # the irregular DSM advantage grows with processor count
    gap = {n: res["igrid"]["spf"][n].speedup
           / res["igrid"]["xhpf"][n].speedup for n in COUNTS}
    assert gap[8] > gap[2], f"DSM/XHPF gap should grow: {gap}"

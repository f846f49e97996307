"""E16 (extension) — inspector-executor vs DSM on the irregular codes.

Section 8's related work: Mukherjee et al. found plain shared memory not
competitive with the CHAOS inspector-executor runtime, and Lu et al. [12]
found that TreadMarks *with simple compiler support* "achieves similar
performance to the inspector-executor method".  With the inspector-executor
implemented in the XHPF backend (`repro.compiler.inspector`), that comparison
can be rerun here:

* the inspector-executor rescues compiler-generated message passing from
  the broadcast-everything collapse (its data volume drops by orders of
  magnitude),
* and the resulting performance is *comparable to* the compiler+DSM
  combination — consistent with Lu et al., and with this paper's argument
  that the DSM delivers that class of performance without the complex
  compiler.
"""

from conftest import all_variants, archive, one_variant, runner  # noqa: F401


def test_inspector_executor_comparison(runner):
    def experiment_direct():
        from repro.apps.common import get_app
        from repro.compiler.xhpf import run_xhpf
        from conftest import NPROCS, PRESET, all_variants as av
        out = {}
        for app in ("igrid", "nbf"):
            base = av(app)
            spec = get_app(app)
            prog = spec.build_program(spec.params(PRESET))
            r = run_xhpf(prog, nprocs=NPROCS, inspector_executor=True)
            elapsed, wtraffic = r.window()
            out[app] = dict(
                spf=base["spf"], xhpf=base["xhpf"], pvme=base["pvme"],
                insp_speedup=base["seq"].time / elapsed,
                insp_msgs=wtraffic.messages,
                insp_kb=wtraffic.kilobytes)
        return out

    res = runner(experiment_direct)
    lines = ["Extension — inspector-executor (CHAOS-style) vs the DSM"]
    for app, r in res.items():
        lines.append(
            f"{app:6s} speedups: XHPF bcast-all {r['xhpf'].speedup:5.2f}, "
            f"XHPF+inspector {r['insp_speedup']:5.2f}, "
            f"SPF/Tmk {r['spf'].speedup:5.2f}, PVMe {r['pvme'].speedup:5.2f}")
        lines.append(
            f"       window data: bcast-all {r['xhpf'].kilobytes:9.0f} KB "
            f"-> inspector {r['insp_kb']:9.0f} KB")
    archive("ext_inspector", "\n".join(lines))

    for app, r in res.items():
        assert r["insp_speedup"] > r["xhpf"].speedup, (
            f"{app}: the inspector must beat broadcast-everything")
        assert r["insp_kb"] < r["xhpf"].kilobytes / 5, app
        # Lu et al.: DSM ~ inspector-executor (within ~15% either way)
        ratio = r["insp_speedup"] / r["spf"].speedup
        assert 0.8 < ratio < 1.25, (
            f"{app}: inspector/DSM ratio {ratio:.2f} — expected comparable")

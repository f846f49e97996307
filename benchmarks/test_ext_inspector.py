"""E16 (extension) — inspector-executor vs DSM on the irregular codes.

Section 8's related work: Mukherjee et al. found plain shared memory not
competitive with the CHAOS inspector-executor runtime, and Lu et al. [12]
found that TreadMarks *with simple compiler support* "achieves similar
performance to the inspector-executor method".  With the inspector-executor
implemented in the XHPF backend (`repro.compiler.inspector`, the
``xhpf_ie`` variant), that comparison can be rerun here:

* the inspector-executor rescues compiler-generated message passing from
  the broadcast-everything collapse (its data volume drops by orders of
  magnitude),
* and the resulting performance is *comparable to* the compiler+DSM
  combination — consistent with Lu et al., and with this paper's argument
  that the DSM delivers that class of performance without the complex
  compiler.
"""

from repro.eval.tables import INSPECTOR_APPS


def test_inspector_executor_comparison(doc):
    for app in INSPECTOR_APPS:
        spf, xhpf, insp = (doc.result(app, v)
                           for v in ("spf", "xhpf", "xhpf_ie"))
        assert insp.speedup > xhpf.speedup, (
            f"{app}: the inspector must beat broadcast-everything")
        assert insp.kilobytes < xhpf.kilobytes / 5, app
        # Lu et al.: DSM ~ inspector-executor (within ~15% either way)
        ratio = insp.speedup / spf.speedup
        assert 0.8 < ratio < 1.25, (
            f"{app}: inspector/DSM ratio {ratio:.2f} — expected comparable")

"""E14 (extension) — the Section 8 enhancements, measured.

Section 8 proposes: efficient support for reductions, more aggressive
consistency-overhead elimination, pushing data, and dynamic load
balancing.  This bench turns each proposal on over the SPF-generated
applications and reports what it buys on the simulated SP/2:

* tree reductions on 3-D FFT (whose per-iteration checksum pays two
  serialized lock chains per iteration),
* halo pushing on Jacobi (whose entire DSM overhead is boundary pulls),
* everything combined ("the compiler and DSM system enhancements"),
  against hand-coded message passing — the paper's Section 9 conjecture
  that "the performance of regular applications can match that of their
  message passing counterparts".
"""

from repro.eval.tables import ENHANCEMENTS


def test_section8_enhancements(doc):
    res = {name: doc.result(app, "spf", options=options)
           for name, (app, options) in ENHANCEMENTS.items()}
    res.update(fft_base=doc.result("fft3d", "spf"),
               jac_base=doc.result("jacobi", "spf"),
               jac_pvme=doc.result("jacobi", "pvme"))

    assert res["fft_tree"].speedup >= res["fft_base"].speedup
    assert res["jac_push"].speedup > res["jac_base"].speedup
    assert res["jac_all"].speedup > res["jac_base"].speedup
    # Section 9's conjecture: enhanced compiler+DSM approaches hand MP
    assert res["jac_all"].speedup > 0.93 * res["jac_pvme"].speedup, (
        f"enhanced SPF {res['jac_all'].speedup:.2f} vs PVMe "
        f"{res['jac_pvme'].speedup:.2f}")

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

from conftest import all_variants, archive, one_variant, runner  # noqa: F401


def test_section8_enhancements(runner):
    def experiment():
        out = {}
        out["fft_base"] = one_variant("fft3d", "spf")
        out["fft_tree"] = one_variant(
            "fft3d", "spf", options=dict(tree_reductions=True))
        out["jac_base"] = one_variant("jacobi", "spf")
        out["jac_push"] = one_variant(
            "jacobi", "spf", options=dict(push_halos=True))
        out["jac_all"] = one_variant(
            "jacobi", "spf", options=dict(
                aggregate=True, fuse_loops=True, tree_reductions=True,
                push_halos=True))
        out["jac_pvme"] = all_variants("jacobi")["pvme"]
        return out

    res = runner(experiment)
    lines = ["Section 8 extensions — measured on the simulated SP/2",
             f"FFT   : spf {res['fft_base'].speedup:5.2f} -> "
             f"+tree reductions {res['fft_tree'].speedup:5.2f}",
             f"Jacobi: spf {res['jac_base'].speedup:5.2f} -> "
             f"+halo push {res['jac_push'].speedup:5.2f} -> "
             f"+all enhancements {res['jac_all'].speedup:5.2f} "
             f"(hand-coded PVMe {res['jac_pvme'].speedup:5.2f})"]
    archive("ext_section8_enhancements", "\n".join(lines))

    assert res["fft_tree"].speedup >= res["fft_base"].speedup
    assert res["jac_push"].speedup > res["jac_base"].speedup
    assert res["jac_all"].speedup > res["jac_base"].speedup
    # Section 9's conjecture: enhanced compiler+DSM approaches hand MP
    assert res["jac_all"].speedup > 0.93 * res["jac_pvme"].speedup, (
        f"enhanced SPF {res['jac_all'].speedup:.2f} vs PVMe "
        f"{res['jac_pvme'].speedup:.2f}")

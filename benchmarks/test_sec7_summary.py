"""E11 — Section 7 / abstract: the paper's summary claims.

* Regular applications: compiler-generated and hand-coded message passing
  outperform SPF/TreadMarks (paper: by 5.5-40% and 7.5-49%).
* Irregular applications: SPF/TreadMarks outperforms compiler-generated
  message passing (paper: by 38% and 89%) and underperforms hand-coded
  message passing only slightly (paper: 4.4% and 16%).
* Hand-coded TreadMarks outperforms SPF/TreadMarks on every application
  (paper: by 2-20%).
"""

from repro.eval.tables import summary_ratios


def test_summary_claims(doc):
    r = summary_ratios(doc)
    regular_x, regular_p, irregular_x, irregular_p, tmk_gap = (
        r["regular_xhpf_over_spf"], r["regular_pvme_over_spf"],
        r["irregular_spf_over_xhpf"], r["irregular_pvme_over_spf"],
        r["tmk_over_spf"])

    assert all(x > 1.0 for x in regular_x), "MP wins on regular codes"
    assert all(x > 1.0 for x in regular_p)
    assert all(x > 1.1 for x in irregular_x), "DSM wins on irregular codes"
    assert all(x < 1.25 for x in irregular_p), \
        "DSM stays close to hand-coded MP on irregular codes"
    assert all(x > 0.98 for x in tmk_gap), \
        "hand-coded DSM never loses to compiler-generated"

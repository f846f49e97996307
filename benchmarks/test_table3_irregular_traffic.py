"""E5 — Table 3: message totals and data totals, irregular applications.

The orders-of-magnitude structure the paper reports:

* XHPF's broadcast-everything dwarfs everything else (140 MB / 164 MB in
  the paper vs 131 KB / 228 KB for hand-coded TreadMarks),
* the DSM variants move only what is actually touched,
* SPF carries extra data versus hand-coded TreadMarks because the
  indirection structures live in shared memory (IGrid's map, NBF's
  partner-adjacent staging).
"""

from repro.eval.constants import IRREGULAR_APPS, PAPER


def test_table3(doc):
    for app in IRREGULAR_APPS:
        kb = {v: doc.result(app, v).kilobytes
              for v in ("spf", "tmk", "xhpf", "pvme")}
        msgs = {v: doc.result(app, v).messages
                for v in ("spf", "tmk", "xhpf", "pvme")}
        assert kb["xhpf"] > 5 * kb["tmk"], (
            f"{app}: XHPF data must dwarf hand-Tmk "
            f"({kb['xhpf']:.0f} vs {kb['tmk']:.0f} KB)")
        assert kb["xhpf"] > kb["spf"], app
        assert msgs["xhpf"] > msgs["tmk"], app
        assert kb["spf"] >= kb["tmk"], app


def test_igrid_xhpf_per_iteration_volume_matches_paper(doc):
    """IGrid XHPF: each processor broadcasts its whole block every step
    — per-iteration data should match the paper's 140 MB / 19 iterations."""
    from repro.apps.igrid import PRESETS
    iters = PRESETS[doc.preset]["iters"]       # the measured window
    per_iter_kb = doc.result("igrid", "xhpf").kilobytes / iters
    paper_per_iter = PAPER["igrid"].data_kb["xhpf"] / 19
    assert 0.7 * paper_per_iter < per_iter_kb < 1.3 * paper_per_iter, (
        f"{per_iter_kb:.0f} KB/iter vs paper {paper_per_iter:.0f}")

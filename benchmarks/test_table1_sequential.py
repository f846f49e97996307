"""E1 — Table 1: data set sizes and sequential execution times.

The sequential oracle's virtual time at the paper's problem sizes should
match Table 1 (that is what the per-application compute costs were
calibrated against); at the default ``bench`` preset the iteration counts
are reduced, so times scale accordingly.
"""

from repro.eval.constants import APPS, PAPER


def test_table1(doc):
    for app in APPS:
        measured = doc.table1[app][1]
        expect = PAPER[app].seq_time
        # calibration target: within 20% of Table 1 at paper sizes
        assert 0.8 * expect < measured < 1.2 * expect, (
            f"{app}: {measured:.1f}s vs Table 1 {expect}s")

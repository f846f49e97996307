"""Traffic-prediction cross-check: static estimate vs. simulated DsmStats.

The regular applications' communication is statically knowable (the
paper's premise for compiling them well); the estimator must land within
the declared tolerances of the simulator's counters.  The irregular
applications are exactly the ones it must *refuse* to predict.
"""

import pytest

from repro.api import RunRequest, execute
from repro.apps.common import get_app
from repro.compiler.lint import (TRAFFIC_TOLERANCES, compare_traffic,
                                 estimate_spf_traffic)

N = 8
REGULAR = ["jacobi", "shallow", "mgs", "fft3d"]


def _estimate(app):
    spec = get_app(app)
    program = spec.build_program(spec.params("test"))
    return estimate_spf_traffic(program, N)


@pytest.mark.parametrize("app", REGULAR)
def test_prediction_within_declared_tolerance(app):
    est = _estimate(app)
    assert est.analyzable, est.reason
    res = execute(RunRequest(app, "spf", nprocs=N, preset="test"))
    rows = compare_traffic(est, res.dsm, res.total_messages)
    assert {m for m, *_ in rows} == set(TRAFFIC_TOLERANCES)
    bad = [(m, p, a, tol) for m, p, a, tol, ok in rows if not ok]
    assert not bad, f"{app}: out-of-tolerance predictions {bad}"


@pytest.mark.parametrize("app", ["igrid", "nbf"])
def test_irregular_apps_are_unanalyzable(app):
    est = _estimate(app)
    assert not est.analyzable
    assert "irregular" in est.reason or "accumulate" in est.reason

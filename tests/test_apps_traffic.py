"""Structural traffic assertions per application (test-size runs).

These check the *mechanisms* behind the paper's Tables 2 and 3 — which
variant sends what kind of traffic — rather than absolute counts.
"""

import pytest

from repro.api import RunRequest, execute
from repro.apps.common import get_app

N = 4

# The page-granularity effects of Tables 2/3 need arrays whose rows are at
# least page-sized (as the paper's are); the tiny "test" preset inverts
# them.  These mid-size presets keep rows page-scale while staying fast.
TRAFFIC = {"jacobi": dict(n=1024, iters=3, warmup=1),
           "igrid": dict(n=200, iters=3, warmup=1),
           "nbf": dict(n=4096, iters=3, warmup=0, P=8, W=128)}


@pytest.fixture(autouse=True, scope="module")
def traffic_presets():
    """The "traffic" preset exists while this module's tests run, and only
    then: no other test sees it in the registry."""
    for app, params in TRAFFIC.items():
        get_app(app).presets["traffic"] = params
    yield
    for app in TRAFFIC:
        del get_app(app).presets["traffic"]


def run(app, variant, preset="test", **kw):
    return execute(RunRequest(app, variant, nprocs=N, preset=preset, **kw))


def test_jacobi_pvme_exact_message_formula():
    """2 boundary lines per neighbour pair per timed iteration — the
    formula behind Table 2's PVMe count (1400 = 14 x 100)."""
    res = run("jacobi", "pvme")
    from repro.apps.jacobi import PRESETS
    iters = PRESETS["test"]["iters"]            # the measured window
    total_iters = iters + PRESETS["test"]["warmup"]
    assert res.messages == 2 * (N - 1) * iters
    assert res.total_messages == 2 * (N - 1) * total_iters


def test_jacobi_tmk_messages_are_faults_plus_barriers():
    """Every hand-Tmk Jacobi message is synchronization or fault traffic —
    there is no bulk-data category (the DSM has no send primitive)."""
    res = run("jacobi", "tmk")
    assert set(res.categories) <= {"sync", "diff_req", "diff_rep"}
    reqs = res.categories.get("diff_req", (0, 0))[0]
    reps = res.categories.get("diff_rep", (0, 0))[0]
    assert reqs == reps      # every fault is a request/reply pair


def test_jacobi_dsm_moves_less_data_than_mp():
    """Table 2's headline: only modified words travel as diffs, and
    Jacobi's interior stays zero until the boundary wave arrives."""
    tmk = run("jacobi", "tmk", preset="traffic")
    pvme = run("jacobi", "pvme", preset="traffic")
    assert tmk.kilobytes < pvme.kilobytes
    assert tmk.messages > pvme.messages      # ...but needs more messages


def test_igrid_xhpf_broadcasts_dwarf_dsm():
    """Table 3: XHPF ~1000x the data of hand-coded TreadMarks on IGrid."""
    tmk = run("igrid", "tmk", preset="traffic")
    xhpf = run("igrid", "xhpf", preset="traffic")
    # at paper size the ratio is ~1000x (see benchmarks); at this reduced
    # size partition-boundary diffs weigh more, but the gap stays wide
    assert xhpf.kilobytes > 5 * tmk.kilobytes
    assert xhpf.messages > tmk.messages


def test_igrid_spf_pays_for_shared_indirection_map():
    """SPF shares the map; the hand-coded program computes it locally."""
    spf = run("igrid", "spf")
    tmk = run("igrid", "tmk")
    assert spf.kilobytes > tmk.kilobytes


def test_nbf_xhpf_broadcasts_dwarf_dsm():
    tmk = run("nbf", "tmk", preset="traffic")
    xhpf = run("nbf", "xhpf", preset="traffic")
    assert xhpf.kilobytes > 10 * tmk.kilobytes


def test_nbf_dsm_fetches_on_demand():
    """TreadMarks NBF touches only partner-boundary pages."""
    tmk = run("nbf", "tmk")
    assert tmk.dsm.read_faults > 0
    # far fewer faults than molecules: on-demand, not broadcast
    from repro.apps.nbf import PRESETS
    assert tmk.dsm.read_faults < PRESETS["test"]["n"]


def test_mgs_pvme_broadcast_formula():
    """The owner broadcasts vector i each iteration: (n-1) x N messages."""
    res = run("mgs", "pvme")
    from repro.apps.mgs import PRESETS
    n = PRESETS["test"]["n"]
    assert res.messages == (N - 1) * n


def test_fft_transpose_dsm_pays_per_page():
    """The paper's '30x more messages' effect, in miniature."""
    tmk = run("fft3d", "tmk")
    pvme = run("fft3d", "pvme")
    assert tmk.messages > 3 * pvme.messages


def test_spf_vs_tmk_overhead_direction():
    """Compiler-generated shared memory never beats hand-coded on traffic."""
    for app in ("jacobi", "shallow", "igrid"):
        spf = run(app, "spf")
        tmk = run(app, "tmk")
        assert spf.messages >= tmk.messages, app


def test_window_traffic_excludes_warmup():
    res = run("jacobi", "tmk")
    assert res.messages < res.total_messages


def test_sync_and_data_categories_present_for_dsm():
    res = run("jacobi", "tmk")
    # a DSM run has synchronization, requests and replies
    assert res.dsm.barriers > 0
    assert res.dsm.twins_created > 0

"""The `repro.api` value types: serialization, identity, the registry.

Pins the ``repro-run/1`` contract that the CLI, the sweep/chaos
harnesses and the serve wire protocol all share:

* ``RunRequest``/``RunResult`` round-trip through
  ``to_json()``/``from_json()`` under their schema tags;
* ``RunResult.canonical_bytes()`` is the bit-identity currency — equal
  bytes iff the runs are equivalent, volatile fields excluded;
* the machine/fault-plan doc serializers invert each other;
* the registry is the single source of app/variant truth.
"""

import dataclasses
import sys

import pytest

from repro.api import (DSM_VARIANTS, PRESETS, VARIANTS, InProcess,
                       ProgramCache, RunRequest, RunResult, execute,
                       registry)
from repro.apps.common import get_app
from repro.api.types import (RUN_SCHEMA, VOLATILE_RESULT_FIELDS,
                             fault_plan_from_doc, fault_plan_to_doc,
                             machine_from_doc, machine_to_doc)
from repro.sim.faults import FaultPlan
from repro.sim.machine import SP2_MODEL


def test_run_request_round_trips_with_schema_tag():
    req = RunRequest("jacobi", "spf", nprocs=4, preset="test",
                     schedule_seed=7, racecheck=True,
                     options={"push_halos": True}, tag="t-1")
    doc = req.to_json()
    assert doc["schema"] == RUN_SCHEMA
    assert RunRequest.from_json(doc) == req
    # docs are plain JSON: a dict round-trip must also work
    assert RunRequest.from_json(dict(doc)) == req


def test_run_request_refuses_retired_fields():
    """``gc_epochs`` is a protocol constant now; a request naming it is
    refused instead of silently running with the constant."""
    doc = RunRequest("jacobi", "spf").to_json()
    doc["gc_epochs"] = 8
    with pytest.raises(ValueError, match="gc_epochs"):
        RunRequest.from_json(doc)


def test_run_request_rejects_wrong_schema():
    doc = RunRequest("jacobi", "spf").to_json()
    doc["schema"] = "repro-run/999"
    with pytest.raises(ValueError):
        RunRequest.from_json(doc)


def test_cache_key_tracks_compile_coordinates_only():
    base = RunRequest("jacobi", "spf", nprocs=4, preset="test")
    assert base.cache_key() == RunRequest(
        "jacobi", "spf", nprocs=4, preset="test",
        schedule_seed=3, tag="x").cache_key()
    assert base.cache_key() != dataclasses.replace(
        base, nprocs=8).cache_key()


def test_environment_does_not_change_a_run(monkeypatch):
    """A run is a function of its request: the variables that once
    attached a fault plan or disabled the fast path change nothing."""
    request = RunRequest("jacobi", "spf", nprocs=2, preset="test",
                         seq_time=1.0)
    clean = execute(request)
    monkeypatch.setenv("TMK_FAULTS", "1")
    monkeypatch.setenv("TMK_FASTPATH", "0")
    assert execute(request).canonical_bytes() == clean.canonical_bytes()


def test_page_size_override_is_a_structured_failure():
    """The page size is a constant of the shared space, not a machine
    field: overriding it must fail, never run with wrong numbers -- as a
    ValueError naming the key and listing the fields, like any unknown
    machine key."""
    request = RunRequest("jacobi", "tmk", nprocs=4, preset="test",
                         machine={"page_size": 2048}, seq_time=1.0)
    [(_index, result)] = InProcess().stream([request])
    assert not result.ok
    assert result.error_kind == "ValueError"
    assert "'page_size'" in result.error and "latency" in result.error


@pytest.mark.parametrize("request_", [
    RunRequest("jacobi", "spf", mode="model",
               options={"push_halos": True}),
    RunRequest("jacobi", "spf_opt", options={"push_halos": True}),
    RunRequest("jacobi", "tmk", options={"push_halos": True}),
    RunRequest("igrid", "xhpf", options={"inspector_executor": True}),
    RunRequest("jacobi", "spf", options={"improved_interface": False}),
    RunRequest("jacobi", "spf", options={"bogus": True}),
], ids=["model", "spf_opt", "tmk", "xhpf-ie", "spf-old-interface",
        "unknown-key"])
def test_options_take_effect_or_are_refused(request_):
    """Each of these once ran with ``ok=True`` and exactly the numbers of
    the request it silently became (the options unread, or another
    variant picked under this one's label) or failed as a TypeError (a
    key ``SpfOptions`` does not have)."""
    request = dataclasses.replace(request_, nprocs=4, preset="test",
                                  seq_time=1.0)
    [(_index, result)] = InProcess().stream([request])
    assert not result.ok
    assert result.error_kind == "ValueError"
    assert "options" in result.error
    if "bogus" in request.options:      # refused by name, choices listed
        assert "'bogus'" in result.error and "push_halos" in result.error


def test_spf_options_take_effect():
    base = RunRequest("jacobi", "spf", nprocs=4, preset="test", seq_time=1.0)
    pushed = execute(dataclasses.replace(base, options={"push_halos": True}))
    assert pushed.ok
    assert pushed.canonical_bytes() != execute(base).canonical_bytes()


def test_run_result_round_trips_and_fingerprint_drops_volatiles():
    res = execute(RunRequest("jacobi", "spf", nprocs=2, preset="test",
                             seq_time=1.0))
    doc = res.to_json()
    assert doc["schema"] == RUN_SCHEMA
    assert RunResult.from_json(doc).canonical_bytes() \
        == res.canonical_bytes()
    fp = res.fingerprint()
    for field in VOLATILE_RESULT_FIELDS:
        assert field not in fp
    # the volatile fields are exactly what may differ between a direct
    # run and a service run of the same request
    again = dataclasses.replace(res, wall_s=1e9, worker=42,
                                cache_hit=True)
    assert again.canonical_bytes() == res.canonical_bytes()


def test_machine_and_fault_plan_docs_invert():
    assert machine_to_doc(None) is None
    assert machine_from_doc(None) is None
    mach = SP2_MODEL.with_(latency=2e-4)
    assert machine_from_doc(machine_to_doc(mach)) == mach
    assert fault_plan_to_doc(None) is None
    plan = FaultPlan.default(seed=3)
    back = fault_plan_from_doc(fault_plan_to_doc(plan))
    assert back == plan


#: every key the plan doc took before a FaultPlan became a seed, four
#: rates and a stall schedule, each with a value it once accepted
RETIRED_PLAN_KEYS = {
    "overrides": {"sync": {"drop": 1.0}}, "delay_max": 1e-3,
    "reorder_lag": 1e-2, "slow_nodes": {"1": 0.01}, "reliable": False,
    "rto": 1e-3, "max_attempts": 3,
}


@pytest.mark.parametrize("doc, key", [
    *(({name: value}, name) for name, value in RETIRED_PLAN_KEYS.items()),
    ({"sed": 3}, "sed"),
    ({"rates": {"drop": 0.1, "dorp": 0.1}}, "dorp"),
    ({"stalls": [{"node": 1, "at": 0.0, "duration": 0.1, "nodes": 2}]},
     "nodes"),
], ids=[*RETIRED_PLAN_KEYS, "misspelled-seed", "misspelled-rate",
        "misspelled-stall"])
def test_fault_plan_doc_refuses_unknown_keys(doc, key):
    """Any key but a seed, four rates and a stall schedule -- each retired
    setting, or a typo that once ran with the default -- is refused by
    name, and a run carrying it fails as a ValueError."""
    with pytest.raises(ValueError, match=repr(key)):
        fault_plan_from_doc(doc)
    request = RunRequest("jacobi", "spf", nprocs=2, preset="test",
                         seq_time=1.0, fault_plan={"seed": 1, **doc})
    [(_index, result)] = InProcess().stream([request])
    assert not result.ok
    assert result.error_kind == "ValueError"
    assert repr(key) in result.error


@pytest.mark.parametrize("doc, named", [
    ({"rates": {"drop": -3, "delay": 7}}, "fault rate drop"),
    ({"stalls": [{"node": 99, "at": 0, "duration": -1}]}, "stall duration"),
    ({"rates": {"drop": "x"}}, "fault rate drop"),
    ({"stalls": [{"node": 1}]}, "'at', 'duration'"),
    ({"stalls": [{"node": 99, "at": 0, "duration": 0.01}]},
     "node 99 of a 2-node network"),
    ({"seed": 1.5}, "seed must be an integer"),
    ({"seed": True}, "seed must be an integer"),
], ids=["rates-out-of-range", "stall-negative", "rate-not-a-number",
        "stall-missing-fields", "stall-on-missing-node", "seed-fraction",
        "seed-bool"])
def test_fault_plan_values_are_checked_up_front(doc, named):
    """Each of these once ran ``ok=True`` with nonsense faults (a seed of
    1.5 or true ran as seed 1) or failed
    mid-run as a SimError or TypeError: the plan is refused before the
    run starts, as a ValueError naming what is wrong (the last by the
    2-node network, which has no node 99)."""
    request = RunRequest("jacobi", "spf", nprocs=2, preset="test",
                         seq_time=1.0, fault_plan=doc)
    [(_index, result)] = InProcess().stream([request])
    assert not result.ok
    assert result.error_kind == "ValueError"
    assert named in result.error


def test_registry_is_consistent():
    assert set(DSM_VARIANTS) <= set(VARIANTS)
    assert set(PRESETS) == {"paper", "bench", "test"}
    listed = {info.name for info in registry.apps()}
    assert listed == set(registry.APPS)
    for info in registry.apps():
        # every app serves at least the canonical presets (extras allowed:
        # other test modules register app-specific ones, e.g. "traffic")
        assert set(PRESETS) <= set(info.presets)
        assert registry.supports(info.name, "spf") is None
        # spf_opt exists only where the paper hand-optimized the app
        reason = registry.supports(info.name, "spf_opt")
        assert (reason is None) == info.has_spf_opt, info.name
    with pytest.raises(ValueError, match="warp"):
        registry.supports("jacobi", "warp")


def test_registry_presets_are_each_apps_own():
    """A test module that needs an extra preset adds it with a fixture and
    takes it away again: every other test -- and a ``--jobs`` worker, which
    sees only the app modules -- gets each app's own ``PRESETS``: the
    canonical three, plus the model-sensitivity ablation's size for the
    two apps it runs."""
    from repro.eval.tables import SENSITIVITY_PRESET, SENSITIVITY_RUNS

    extra = {app: {SENSITIVITY_PRESET} for app, _v in SENSITIVITY_RUNS}
    for name in registry.APPS:
        own = sys.modules[get_app(name).build_program.__module__].PRESETS
        assert set(own) == set(PRESETS) | extra.get(name, set()), name
        assert registry.app_info(name).presets == tuple(sorted(own)), name


def test_program_cache_counts_hits_and_evicts_lru():
    cache = ProgramCache(max_entries=2)
    builds = []

    def make(key):
        return lambda: builds.append(key) or key

    assert cache.get("a", make("a")) == ("a", False)
    assert cache.get("a", make("a")) == ("a", True)
    cache.get("b", make("b"))
    cache.get("c", make("c"))        # evicts "a" (LRU)
    assert cache.get("a", make("a")) == ("a", False)
    assert cache.stats()["hits"] == 1
    assert cache.stats()["misses"] == 4


def test_api_does_not_import_the_harnesses():
    """Layering: ``repro.api`` sits below ``repro.eval`` — importing it
    pulls in the constants leaf and nothing else from the harness layer."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.api; print(sorted(m for m in sys.modules "
         "if m.startswith('repro.eval')))"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "['repro.eval', 'repro.eval.constants']"

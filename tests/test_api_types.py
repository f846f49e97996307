"""The `repro.api` value types: serialization, identity, the registry.

Pins the ``repro-run/1`` contract that the CLI, the sweep/chaos
harnesses and the serve wire protocol all share:

* ``RunRequest``/``RunResult``/``BatchResult`` round-trip through
  ``to_json()``/``from_json()`` under their schema tags;
* ``RunResult.fingerprint()`` is the bit-identity currency — equal
  fingerprints iff the runs are equivalent, volatile fields excluded;
* the machine/fault-plan doc serializers invert each other;
* the registry is the single source of app/variant truth.
"""

import dataclasses
import sys

import pytest

from repro.api import (DSM_VARIANTS, PRESETS, VARIANTS, BatchResult,
                       InProcess, ProgramCache, RunRequest, RunResult,
                       execute, registry)
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
    assert execute(request).fingerprint() == clean.fingerprint()


def test_page_size_override_is_a_structured_failure():
    """The page size is a constant of the shared space, not a machine
    field: overriding it must fail, never run with wrong numbers."""
    request = RunRequest("jacobi", "tmk", nprocs=4, preset="test",
                         machine={"page_size": 2048}, seq_time=1.0)
    [(_index, result)] = InProcess().stream([request])
    assert not result.ok
    assert result.error_kind == "TypeError"
    assert "page_size" in result.error


@pytest.mark.parametrize("request_", [
    RunRequest("jacobi", "spf", mode="model",
               options={"push_halos": True}),
    RunRequest("jacobi", "spf_opt", options={"push_halos": True}),
    RunRequest("jacobi", "tmk", options={"push_halos": True}),
    RunRequest("igrid", "xhpf", options={"inspector_executor": True}),
    RunRequest("jacobi", "spf", options={"improved_interface": False}),
], ids=["model", "spf_opt", "tmk", "xhpf-ie", "spf-old-interface"])
def test_options_take_effect_or_are_refused(request_):
    """Each of these once ran with ``ok=True`` and exactly the numbers of
    the request it silently became: the options unread, or another
    variant picked under this one's label."""
    request = dataclasses.replace(request_, nprocs=4, preset="test",
                                  seq_time=1.0)
    [(_index, result)] = InProcess().stream([request])
    assert not result.ok
    assert result.error_kind == "ValueError"
    assert "options" in result.error


def test_spf_options_take_effect():
    base = RunRequest("jacobi", "spf", nprocs=4, preset="test", seq_time=1.0)
    pushed = execute(dataclasses.replace(base, options={"push_halos": True}))
    assert pushed.ok
    assert pushed.fingerprint() != execute(base).fingerprint()


def test_run_result_round_trips_and_fingerprint_drops_volatiles():
    res = execute(RunRequest("jacobi", "spf", nprocs=2, preset="test",
                             seq_time=1.0))
    doc = res.to_json()
    assert doc["schema"] == RUN_SCHEMA
    assert RunResult.from_json(doc).fingerprint() == res.fingerprint()
    fp = res.fingerprint()
    for field in VOLATILE_RESULT_FIELDS:
        assert field not in fp
    # the volatile fields are exactly what may differ between a direct
    # run and a service run of the same request
    again = dataclasses.replace(res, wall_s=1e9, worker=42,
                                cache_hit=True)
    assert again.fingerprint() == fp


def test_batch_result_round_trips_with_counters():
    results = tuple(execute(RunRequest("jacobi", v, nprocs=2,
                                       preset="test", seq_time=1.0))
                    for v in ("spf", "tmk"))
    batch = BatchResult(results=results, wall_s=1.5, workers=2,
                        cache_hits=1, cache_misses=1, crashes=0)
    doc = batch.to_json()
    back = BatchResult.from_json(doc)
    assert back.ok and back.runs == 2
    assert (back.cache_hits, back.cache_misses) == (1, 1)
    assert [r.fingerprint() for r in back.results] \
        == [r.fingerprint() for r in results]


def test_machine_and_fault_plan_docs_invert():
    assert machine_to_doc(None) is None
    assert machine_from_doc(None) is None
    mach = SP2_MODEL.with_(latency=2e-4)
    assert machine_from_doc(machine_to_doc(mach)) == mach
    assert fault_plan_to_doc(None) is None
    plan = FaultPlan.default(seed=3)
    back = fault_plan_from_doc(fault_plan_to_doc(plan))
    assert back.seed == 3
    assert back.rates == plan.rates
    assert back.stalls == plan.stalls


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

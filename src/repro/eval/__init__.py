"""Evaluation harness: runs every variant of every application and
regenerates each table and figure of the paper (see DESIGN.md §4).

Submodules are imported lazily (PEP 562): ``repro.eval.constants`` is a
leaf the :mod:`repro.api` registry depends on, so this package's
``__init__`` must not eagerly pull in the heavyweight harness modules
(``experiments``, ``chaos``, ...) — they import ``repro.api`` right back.
``from repro.eval import run_all_variants`` and friends keep working.
"""

_EXPORTS = {
    "ChaosCell": "repro.eval.chaos",
    "ChaosReport": "repro.eval.chaos",
    "chaos_sweep": "repro.eval.chaos",
    "PAPER": "repro.eval.constants",
    "PaperNumbers": "repro.eval.constants",
    "VariantResult": "repro.eval.experiments",
    "run_all_variants": "repro.eval.experiments",
    "VARIANTS": "repro.eval.experiments",
    "RacecheckReport": "repro.eval.racecheck",
    "SeedRun": "repro.eval.racecheck",
    "racecheck_app": "repro.eval.racecheck",
    "format_table1": "repro.eval.tables",
    "format_speedup_figure": "repro.eval.tables",
    "format_traffic_table": "repro.eval.tables",
    "format_comparison": "repro.eval.tables",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.eval' has no attribute "
                             f"{name!r}")
    import importlib
    return getattr(importlib.import_module(module), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))

"""Shared infrastructure for the reproduction benchmarks.

Each benchmark regenerates one table or figure of the paper (see
DESIGN.md §4).  Several experiments share the same runs (Figure 1 and
Table 2 both need the regular applications' four variants), so runs are
memoized per (app, variant, nprocs, preset) for the session.  Every
benchmark prints its paper-vs-measured table and archives it under
``benchmarks/results/``.

Problem sizes are the ``bench`` presets: the paper's array shapes with
reduced iteration counts (virtual time is measured, so fewer iterations
change absolute numbers, not comparisons).  Pass ``--paper-size`` via the
REPRO_PRESET environment variable to run the full Table 1 sizes.
"""

import os
import pathlib

import pytest

from repro.api import RunRequest, execute
from repro.eval.experiments import run_all_variants

PRESET = os.environ.get("REPRO_PRESET", "bench")
NPROCS = int(os.environ.get("REPRO_NPROCS", "8"))
RESULTS_DIR = pathlib.Path(__file__).parent / "results"

_cache: dict = {}


def all_variants(app, variants=None):
    key = (app, tuple(variants) if variants else None, NPROCS, PRESET)
    if key not in _cache:
        _cache[key] = run_all_variants(app, nprocs=NPROCS, preset=PRESET,
                                       variants=variants)
    return _cache[key]


def one_variant(app, variant, **kw):
    key = (app, variant, NPROCS, PRESET,
           tuple(sorted((k, repr(v)) for k, v in kw.items())))
    if key not in _cache:
        seq = all_variants(app, ["seq"])["seq"]
        _cache[key] = execute(RunRequest(app, variant, nprocs=NPROCS,
                                         preset=PRESET, seq_time=seq.time,
                                         **kw))
    return _cache[key]


def archive(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)


@pytest.fixture
def runner(benchmark):
    """Run ``fn`` once under pytest-benchmark (a reproduction run is a
    deterministic simulation — repeating it would measure the same thing)."""

    def run(fn):
        return benchmark.pedantic(fn, rounds=1, iterations=1)

    return run

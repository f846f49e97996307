"""One reproduction path: the paper's fourteen archives from one batched run.

``python -m repro reproduce`` and ``benchmarks/conftest.py`` both call
:func:`reproduce`, which works in four steps:

1. **Plan** (:func:`plan`): every run the archives read, deduplicated by
   request identity (:func:`request_key`, the ``to_json()`` text) —
   Figure 1 and Table 2, §5 and §7 read the same runs.
2. **Run**: the whole plan is one batch through
   :func:`~repro.eval.parallel.run_requests` on one tier (``service``).
   Each distinct request runs once; :func:`~repro.api.execute` fills in
   every result's sequential-oracle time itself, and
   :func:`check_signatures` holds every parallel result to the
   sequential run's answer.
3. **Render**: one :data:`~repro.eval.tables.RESULT_ORDER` renderer per
   archive.
4. **Write**: ``results_dir/NAME.txt`` per archive;
   :func:`format_report` assembles them in :data:`RESULT_ORDER`.

Every run is on the paper's 8-processor machine; only the preset (problem
size) is chosen.  The serial, ``--jobs`` and ``--fleet`` tiers write the
same bytes.  :func:`run_all_variants` is the same one batch for one
application (``repro compare``).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Optional

from repro.api.registry import FIGURE_VARIANTS
from repro.api.types import RunRequest
from repro.apps.common import KNOWN_DEFECTS, signatures_close
from repro.eval.constants import APPS, PAPER
from repro.eval.parallel import run_requests
from repro.eval.tables import (ENHANCEMENTS, HAND_OPT_APPS, INSPECTOR_APPS,
                               NPROCS, RESULT_ORDER, SCALING_COUNTS,
                               SCALING_RUNS, SENSITIVITY_MODELS,
                               SENSITIVITY_PRESET, SENSITIVITY_RUNS)

__all__ = ["RESULT_ORDER", "RESULTS_DIR", "Reproduction", "plan",
           "reproduce", "check_signatures", "format_report", "request_key",
           "run_all_variants"]

RESULTS_DIR = (pathlib.Path(__file__).resolve().parents[3]
               / "benchmarks" / "results")


def request_key(request: RunRequest) -> str:
    """Request identity, key-sorted as a request is a value: ``to_json()``
    text (unlike ``cache_key()``, with ``seq_time``)."""
    return json.dumps(request.to_json(), sort_keys=True)


def run_all_variants(app: str, nprocs: int = 8, preset: str = "bench",
                     variants: Optional[list] = None,
                     service=None) -> dict:
    """Run ``variants`` (default: the four of Figures 1/2 plus seq) of
    ``app`` as one batch on ``service``; results are keyed in
    ``variants`` order."""
    variants = list(variants or FIGURE_VARIANTS)
    requests = [RunRequest(app=app, variant=v, nprocs=nprocs, preset=preset)
                for v in variants]
    return dict(zip(variants, run_requests(requests, service)))


def _wanted(preset: str):
    """Every run an archive reads, repeats included."""
    def req(app, variant, nprocs=NPROCS, preset=preset, **overrides):
        return RunRequest(app, variant, nprocs=nprocs, preset=preset,
                          **overrides)

    for app in APPS:                                  # Figs 1-2, Tables 2-3
        for variant in FIGURE_VARIANTS:
            yield req(app, variant)
    yield req("jacobi", "spf_old")                    # §2.3
    for app in HAND_OPT_APPS:                         # §5.1-5.4
        yield req(app, "spf_opt")
    for app, options in ENHANCEMENTS.values():        # §8
        yield req(app, "spf", options=options)
    for app in INSPECTOR_APPS:
        yield req(app, "xhpf_ie")
    for app, variant in SCALING_RUNS:
        for n in SCALING_COUNTS:
            yield req(app, variant, nprocs=n)
    for machine in SENSITIVITY_MODELS.values():
        for app, variant in SENSITIVITY_RUNS:
            yield req(app, variant, preset=SENSITIVITY_PRESET,
                      machine=machine)
    for app, _variant in SENSITIVITY_RUNS:            # their oracles
        yield req(app, "seq", preset=SENSITIVITY_PRESET)


def plan(preset: str = "bench") -> list:
    """The distinct runs the fourteen archives read at ``preset``, in
    first-wanted order (none sets ``seq_time``)."""
    return list({request_key(r): r for r in _wanted(preset)}.values())


@dataclass
class Reproduction:
    """What one :func:`reproduce` call measured and rendered."""

    preset: str
    results: dict           # request_key -> RunResult
    table1: dict            # app -> (problem size, sequential seconds at
                            # the paper's size; a static sum, not a run)
    dispatch_units: tuple   # Shallow's SPF dispatch units: (plain, fused)
    texts: dict = field(default_factory=dict)   # archive name -> text

    def result(self, app: str, variant: str, nprocs: int = NPROCS,
               preset: Optional[str] = None, **overrides):
        """The planned run with these coordinates (``machine``/``options``
        overrides as on :class:`RunRequest`)."""
        return self.results[request_key(RunRequest(
            app, variant, nprocs=nprocs, preset=preset or self.preset,
            **overrides))]

    def variants(self, app: str) -> dict:
        """Figures 1/2's runs of ``app``: variant -> result."""
        return {v: self.result(app, v) for v in FIGURE_VARIANTS}


def _table1_rows() -> dict:
    from repro.apps.common import get_app
    from repro.compiler.seq import sequential_time

    rows = {}
    for app in APPS:
        spec = get_app(app)
        rows[app] = (PAPER[app].problem_size, sequential_time(
            spec.build_program(spec.params("paper"))))
    return rows


def _dispatch_units() -> tuple:
    """E13, Tseng-style barrier elimination: fusable adjacent loops share
    one fork-join in the optimized Shallow build (compiled, not run)."""
    from repro.apps.shallow import SPEC
    from repro.compiler.spf import SpfOptions, compile_spf

    def units(options):
        exe = compile_spf(SPEC.build_program(SPEC.params("test")),
                          nprocs=NPROCS, options=options)
        return len([u for u in exe.units if u.loops])

    return units(None), units(SpfOptions(fuse_loops=True))


def check_signatures(requests: list, results: list) -> None:
    """Every parallel result's signature agrees with its ``(app,
    preset)`` sequential run's within ``rtol=1e-6``, the tolerance of
    the application correctness tests; a mismatch raises
    ``RuntimeError`` naming the cell.  The :data:`KNOWN_DEFECTS` cells
    are passed over (at ``test`` size ``shallow/tmk`` n=8 is wrong)."""
    oracle = {(request.app, request.preset): result.signature
              for request, result in zip(requests, results)
              if request.variant == "seq"}
    for request, result in zip(requests, results):
        want = oracle[request.app, request.preset]
        known = (request.app, request.variant, request.nprocs)
        if request.variant != "seq" and known not in KNOWN_DEFECTS \
                and not signatures_close(result.signature, want, rtol=1e-6):
            options = f" {request.options}" if request.options else ""
            raise RuntimeError(
                f"{request.app}/{request.variant}{options} "
                f"n={request.nprocs} preset={request.preset}: signature "
                f"{result.signature} is not the sequential run's {want}")


def reproduce(preset: str = "bench", service=None,
              results_dir=RESULTS_DIR, progress=None) -> Reproduction:
    """Plan, run, render and write the fourteen archives.

    ``service``/``progress`` pick the tier and report completions as in
    :func:`~repro.eval.parallel.run_requests`; a failed run, or one whose
    signature is not its sequential oracle's, raises.
    """
    requests = plan(preset)
    results = run_requests(requests, service, progress=progress)
    check_signatures(requests, results)
    doc = Reproduction(preset, dict(zip(map(request_key, requests),
                                        results)),
                       _table1_rows(), _dispatch_units())
    doc.texts.update((name, render(doc))
                     for name, _title, render in RESULT_ORDER)
    results_dir = pathlib.Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    for name, text in doc.texts.items():
        (results_dir / f"{name}.txt").write_text(text + "\n")
    return doc


def format_report(doc: Reproduction) -> str:
    """Every archive's text as one markdown document, in RESULT_ORDER
    (the raw material behind EXPERIMENTS.md)."""
    lines = ["# Reproduction report", "",
             f"Preset `{doc.preset}`, {NPROCS} simulated processors.  "
             "Regenerate with `python -m repro reproduce`; see "
             "EXPERIMENTS.md for the curated analysis.", ""]
    for name, title, _render in RESULT_ORDER:
        lines += [f"## {title}", "", "```", doc.texts[name], "```", ""]
    return "\n".join(lines)

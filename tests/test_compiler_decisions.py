"""Decisions pin: what the compilers *decided* for the six applications.

Traffic totals pin the backends' decisions only indirectly (a moved
fusion boundary or a shifted chunk shows up as a few messages more or
less).  This golden pins them directly, as text: the SPF report
(baseline, the application's hand-optimized option set, and with halo
pushes planned), the XHPF report, every dispatch unit's loop group and
every loop family's per-processor footprints, at ``test`` / n = 8.  Any
drift is a changed compiler decision and must be made deliberately:

    PYTHONPATH=src python tests/test_compiler_decisions.py   # regenerate
"""

import json
import os

import pytest

from repro.api.registry import app_names
from repro.apps.common import get_app
from repro.compiler.ir import ParallelLoop
from repro.compiler.report import footprint_report, spf_report, xhpf_report
from repro.compiler.spf import SpfOptions, compile_spf

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "compiler_decisions_golden.json")
NPROCS = 8


def _units(program, options) -> list:
    """Distinct dispatch-unit loop groups, in first-seen order."""
    exe = compile_spf(program, NPROCS, options)
    groups = (" + ".join(loop.name.split("[")[0] for loop in unit.loops)
              for unit in exe.units if unit.loops)
    return list(dict.fromkeys(groups))


def decisions(app: str) -> dict:
    spec = get_app(app)
    program = spec.build_program(spec.params("test"))
    opt = spec.spf_opt_options() if spec.spf_opt_options else None
    families: dict = {}
    for stmt in program.flat_statements():
        if isinstance(stmt, ParallelLoop):
            families.setdefault(stmt.name.split("[")[0], stmt)
    return {
        "spf_report": spf_report(program, NPROCS),
        "spf_opt_report": opt and spf_report(program, NPROCS, opt),
        "spf_push_report": spf_report(program, NPROCS,
                                      SpfOptions(push_halos=True)),
        "xhpf_report": xhpf_report(program, NPROCS),
        "units": _units(program, None),
        # accumulate programs (nbf) could not be compiled with fuse_loops at
        # the commit this golden was generated at; test_spf.py covers them
        "units_fused": (None if any(loop.accumulate
                                    for loop in families.values())
                        else _units(program, SpfOptions(fuse_loops=True))),
        "footprints": {fam: footprint_report(loop, NPROCS, program)
                       for fam, loop in families.items()},
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("app", app_names())
def test_decisions_match_golden(app, golden):
    assert decisions(app) == golden[app]


def test_golden_covers_every_app(golden):
    assert sorted(golden) == sorted(app_names())


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump({app: decisions(app) for app in app_names()}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")

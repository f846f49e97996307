#!/usr/bin/env python
"""Section 8 of the paper, implemented: closing the regular-code gap.

The paper's conclusion conjectures that "with appropriate enhancements to
the compiler and DSM system ... the performance of regular applications can
match that of their message passing counterparts".  Section 8 lists the
enhancements; this repository implements these as compiler options:

* communication aggregation        (SpfOptions.aggregate     — §5/§8)
* barrier elimination/loop fusion  (SpfOptions.fuse_loops    — Tseng [17])
* efficient reductions             (SpfOptions.tree_reductions)
* pushing data instead of pulling  (SpfOptions.push_halos)

This script stacks them on compiler-generated Jacobi and compares each
stage against hand-coded PVMe message passing.

Run:  python examples/enhancements_study.py     (~1 minute)
"""

from repro.api import RunRequest, execute
from repro.apps.jacobi import SPEC
from repro.compiler.seq import sequential_time
from repro.compiler.spf import SpfOptions, run_spf

NPROCS = 8
PARAMS = dict(n=2048, iters=8, warmup=1)

STAGES = [
    ("SPF baseline", SpfOptions()),
    ("+ aggregation", SpfOptions(aggregate=True)),
    ("+ loop fusion", SpfOptions(aggregate=True, fuse_loops=True)),
    ("+ tree reductions", SpfOptions(aggregate=True, fuse_loops=True,
                                     tree_reductions=True)),
    ("+ halo pushing", SpfOptions(aggregate=True, fuse_loops=True,
                                  tree_reductions=True, push_halos=True)),
]


def main():
    seq = sequential_time(SPEC.build_program(PARAMS))
    print(f"Jacobi {PARAMS['n']}x{PARAMS['n']}, {NPROCS} simulated "
          f"processors (sequential: {seq:.1f}s virtual)\n")
    print(f"{'configuration':22s} {'speedup':>8s} {'msgs':>7s} "
          f"{'faults':>7s} {'pushes':>7s}")
    for label, options in STAGES:
        r = run_spf(SPEC.build_program(PARAMS), nprocs=NPROCS,
                    options=options)
        elapsed, wtraffic = r.window()
        print(f"{label:22s} {seq / elapsed:8.2f} {wtraffic.messages:7d} "
              f"{r.dsm_stats.read_faults:7d} {r.dsm_stats.pushes:7d}")

    pvme = execute(RunRequest("jacobi", "pvme", nprocs=NPROCS, preset="bench"))
    print(f"{'hand-coded PVMe':22s} {pvme.speedup:8.2f} "
          f"{pvme.messages:7d}")
    print("\nThe paper (Section 9): 'With appropriate enhancements ... the "
          "performance of regular\napplications can match that of their "
          "message passing counterparts.'")


if __name__ == "__main__":
    main()

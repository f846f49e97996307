"""events / OS-thread switches / threads / wall per benchmark key, as a markdown table.

    PYTHONPATH=src python benchmarks/engine_table.py [--check] >> "$GITHUB_STEP_SUMMARY"

One run of each ``sim_sync`` and ``sim_bulk`` key of the performance
benchmark, and of each hand-coded (``tmk``/``pvme``) ``serve_mix`` key at
n = 8 (the keys are read from ``benchmarks/perf/workloads.py``, not
restated).  ``events``, ``switches`` and ``threads`` are exact and repeat:
every program ``execute()`` runs is a generator process, so a run hands no
baton (``switches = 0``) and starts no ``simproc-`` thread (``threads =
0``); a change that brings a thread back shows up here as a count, on the
PR that made it.  With ``--check`` the script exits non-zero when any row
shows ``switches > 0`` or ``threads > 0`` (the table is printed either
way).  ``wall`` is one warm run: a magnitude, not a measurement.
"""

import argparse
import os
import sys
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "perf"))

from workloads import SERVE_MIX, SIM_BULK, SIM_SYNC  # noqa: E402

from repro.api import ProgramCache, execute  # noqa: E402
from repro.sim.cluster import Cluster  # noqa: E402


def rows():
    """``(workload, key)`` for every key the table covers, in order."""
    for workload in (SIM_SYNC, SIM_BULK):
        for key in workload.keys:
            yield workload.name, key
    for key in SERVE_MIX.keys:
        if key.variant in ("tmk", "pvme") and key.nprocs == 8:
            yield SERVE_MIX.name, key


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if any run switched threads or "
                             "started a simproc- thread")
    args = parser.parse_args()

    runs, started = [], []
    real_run, real_start = Cluster.run, threading.Thread.start

    def run(self, *a, **kw):
        runs.append(real_run(self, *a, **kw))
        return runs[-1]

    def start(thread):
        if thread.name.startswith("simproc-"):
            started.append(thread.name)
        real_start(thread)

    Cluster.run, threading.Thread.start = run, start
    cache = ProgramCache()
    offenders = []
    print("| workload | key | events | switches | threads | wall ms |")
    print("|---|---|---:|---:|---:|---:|")
    try:
        for name, key in rows():
            execute(key.request(), cache)           # compile, warm caches
            del started[:]
            t0 = time.perf_counter()
            execute(key.request(), cache)
            wall = time.perf_counter() - t0
            switches, threads = runs[-1].switches, len(started)
            print(f"| {name} | {key.id} | {runs[-1].events} | {switches} | "
                  f"{threads} | {wall * 1e3:.1f} |")
            if switches or threads:
                offenders.append(key.id)
    finally:
        Cluster.run, threading.Thread.start = real_run, real_start
    if args.check and offenders:
        print(f"engine_table: {len(offenders)} run(s) switched threads or "
              f"started a simproc- thread: {', '.join(offenders)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

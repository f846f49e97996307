"""events / diffs / faults / OS-thread switches / threads / wall / us per event / minflt per benchmark key, as a markdown table.

    PYTHONPATH=src python benchmarks/engine_table.py [--check] >> "$GITHUB_STEP_SUMMARY"

One run of each ``sim_sync`` and ``sim_bulk`` key of the performance
benchmark, and of each hand-coded (``tmk``/``pvme``) ``serve_mix`` key at
n = 8 (the keys are read from ``benchmarks/perf/workloads.py``, not
restated).  ``events``, ``diffs``, ``faults``, ``switches`` and
``threads`` are exact and repeat.  ``diffs`` is ``diffs_created /
diffs_applied`` from the run's DSM statistics (``-`` for a run with no
DSM): how much work the twin/diff kernel layer does per key.  ``faults``
is ``read_faults / write_faults / invalidations`` from the same
statistics: how often the per-page protocol bookkeeping around those
kernels owes a charge.  For ``switches`` and ``threads``:
every program ``execute()`` runs is a generator process, so a run hands no
baton (``switches = 0``) and starts no ``simproc-`` thread (``threads =
0``); a change that brings a thread back shows up here as a count, on the
PR that made it.  With ``--check`` the script exits non-zero when any row
shows ``switches > 0`` or ``threads > 0`` (the table is printed either
way).  ``wall`` is one warm run: a magnitude, not a measurement; so is
``us/event``, that wall divided by ``events`` -- the host cost of one
engine event, to quote beside the exact counts.
``minflt`` is the same run's minor page faults (``ru_minflt``): a DSM
node's image becomes resident one 4 KB page at a time, as the node first
touches it, so this is the host-side price of that residency per key --
a magnitude too, gating nothing.
"""

import argparse
import os
import resource
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


def _minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


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
    print("| workload | key | events | diffs | faults | switches | threads "
          "| wall ms | us/event | minflt |")
    print("|---|---|---:|---:|---:|---:|---:|---:|---:|---:|")
    try:
        for name, key in rows():
            execute(key.request(), cache)           # compile, warm caches
            del started[:]
            flt0, t0 = _minflt(), time.perf_counter()
            dsm = execute(key.request(), cache).dsm
            wall, minflt = time.perf_counter() - t0, _minflt() - flt0
            events = runs[-1].events
            switches, threads = runs[-1].switches, len(started)
            diffs = (f"{dsm.diffs_created} / {dsm.diffs_applied}"
                     if dsm else "-")
            faults = (f"{dsm.read_faults} / {dsm.write_faults} / "
                      f"{dsm.invalidations}" if dsm else "-")
            print(f"| {name} | {key.id} | {events} | {diffs} | "
                  f"{faults} | {switches} | {threads} | {wall * 1e3:.1f} | "
                  f"{wall * 1e6 / events:.2f} | {minflt} |")
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

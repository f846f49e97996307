"""events / OS-thread switches / wall per benchmark key, as a markdown table.

    PYTHONPATH=src python benchmarks/engine_table.py >> "$GITHUB_STEP_SUMMARY"

One run of each ``sim_sync`` and ``sim_bulk`` key of the performance
benchmark (the keys are read from ``benchmarks/perf/workloads.py``, not
restated).  ``events`` and ``switches`` are exact and repeat; a compiler-
generated variant reads ``switches = 0`` (its processors are generator
processes), so a change that reintroduces a thread handoff shows up here as
a count, on the PR that made it.  ``wall`` is one warm run: a magnitude,
not a measurement.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "perf"))

from workloads import SIM_BULK, SIM_SYNC  # noqa: E402

from repro.api import ProgramCache, execute  # noqa: E402
from repro.sim.cluster import Cluster  # noqa: E402


def main() -> None:
    runs = []
    real_run = Cluster.run

    def run(self, *args, **kwargs):
        runs.append(real_run(self, *args, **kwargs))
        return runs[-1]

    Cluster.run = run
    cache = ProgramCache()
    print("| workload | key | events | switches | wall ms |")
    print("|---|---|---:|---:|---:|")
    try:
        for workload in (SIM_SYNC, SIM_BULK):
            for key in workload.keys:
                execute(key.request(), cache)       # compile, warm caches
                t0 = time.perf_counter()
                execute(key.request(), cache)
                wall = time.perf_counter() - t0
                print(f"| {workload.name} | {key.id} | {runs[-1].events} | "
                      f"{runs[-1].switches} | {wall * 1e3:.1f} |")
    finally:
        Cluster.run = real_run


if __name__ == "__main__":
    main()

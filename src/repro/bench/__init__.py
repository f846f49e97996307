"""Wall-clock benchmark harness: ``python -m repro bench``.

Everything else in the repository measures *virtual* time — the simulated
platform's behaviour, independent of Python's speed.  This package measures
the one thing virtual time deliberately hides: how fast the simulator
itself runs.  The ROADMAP's "as fast as the hardware allows" north star
needs a measured trajectory, and perf work needs a regression gate.

See :mod:`repro.bench.wallclock` for the kernels, the calibration scheme
that makes wall-clock gating portable across machines, and the JSON result
format (``benchmarks/results/BENCH_wallclock.json``).
"""

from repro.bench.wallclock import (BENCH_KERNELS, calibrate, check_regression,
                                   load_baseline, run_bench)

__all__ = ["BENCH_KERNELS", "calibrate", "check_regression", "load_baseline",
           "run_bench"]

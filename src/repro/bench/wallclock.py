"""Wall-clock kernel timings, calibration, and the regression gate.

Kernels
-------
Five representative simulator workloads (8 simulated processors each):

* ``jacobi_spf``  — compiler-generated regular stencil (the ISSUE's 2x
  target kernel: barrier-per-iteration, large row regions)
* ``jacobi_tmk``  — the hand-coded variant of the same app
* ``shallow_spf_opt`` — fused multi-array loops with the paper's hand
  optimizations (push/aggregate heavy)
* ``igrid_spf``   — irregular indirection-array accesses (gather/scatter)
* ``fft3d_tmk``   — transpose-dominated all-to-all traffic

Each kernel reports wall seconds, simulator events processed, events/sec,
and the run's *virtual* metrics (time, messages, kilobytes) — the latter
are machine-independent and double as a behavioural fingerprint.

Calibration
-----------
Absolute wall-clock thresholds do not travel between machines.  The
harness therefore times a fixed pure-engine workload (two simulated
processes ping-ponging zero-length holds) and scales the committed
baseline by ``calibration_now / calibration_baseline`` before applying the
regression threshold.  The calibration workload exercises exactly the
simulator's dominant primitive (one process-to-process baton handoff per
event, plus Python dispatch), so the ratio tracks machine speed for these
kernels well.  Baseline and run must come from the same engine: a change
that makes a handoff cheaper shrinks the calibration more than the kernels,
so re-record ``BENCH_baseline.json`` in the same commit.

Gate
----
``check_regression`` fails a kernel when its wall time exceeds the scaled
baseline by more than ``tolerance`` (default 25%) plus a small absolute
slack (timer noise floor for the millisecond-scale smoke kernels), and
*always* fails on
any virtual-metric mismatch — a vtime/messages/kilobytes drift means the
change altered simulated behaviour, which no wall-clock tolerance excuses.
"""

from __future__ import annotations

import json
import os
import time
from typing import Optional

__all__ = ["BENCH_KERNELS", "SMOKE_PRESET", "FULL_PRESET", "calibrate",
           "run_bench", "write_results", "load_baseline", "check_regression",
           "DEFAULT_RESULT_PATH", "DEFAULT_BASELINE_PATH"]

SCHEMA = "bench-wallclock/1"
FULL_PRESET = "bench"
SMOKE_PRESET = "test"

DEFAULT_RESULT_PATH = os.path.join("benchmarks", "results",
                                   "BENCH_wallclock.json")
DEFAULT_BASELINE_PATH = os.path.join("benchmarks", "results",
                                     "BENCH_baseline.json")

# (name, app, variant) — the canonical 5-kernel matrix lives in the registry
from repro.api.registry import BENCH_MATRIX as BENCH_KERNELS  # noqa: E402

_CALIBRATION_EVENTS = 40_000

# Absolute wall slack added on top of the relative tolerance.  Smoke-preset
# kernels finish in tens of milliseconds, where scheduler/timer noise easily
# exceeds 25% of the measurement; a percentage alone makes the CI gate flaky.
_WALL_ABS_SLACK_S = 0.05


def calibrate() -> float:
    """Seconds for the fixed pure-engine calibration workload."""
    from repro.sim.engine import Simulator

    sim = Simulator()

    def ping() -> None:
        for _ in range(_CALIBRATION_EVENTS // 2):
            proc_a.hold(0.0)

    def pong() -> None:
        for _ in range(_CALIBRATION_EVENTS // 2):
            proc_b.hold(0.0)

    proc_a = sim.add_process("calib-a", ping)
    proc_b = sim.add_process("calib-b", pong)
    t0 = time.perf_counter()
    sim.run()
    return time.perf_counter() - t0


def _time_kernel(app: str, variant: str, nprocs: int, preset: str) -> dict:
    from repro.api.execute import execute
    from repro.api.types import RunRequest

    t0 = time.perf_counter()
    res = execute(RunRequest(app=app, variant=variant, nprocs=nprocs,
                             preset=preset,
                             seq_time=1.0))  # skip the sequential oracle:
    wall = time.perf_counter() - t0          # wall-clock times the sim only
    out = {
        "app": app,
        "variant": variant,
        "wall_s": round(wall, 4),
        "events": res.events,
        "events_per_s": round(res.events / wall) if wall > 0 else 0,
        "vtime": res.time,
        "messages": res.messages,
        "kilobytes": res.kilobytes,
    }
    if res.dsm is not None:
        out["fastpath_hits"] = res.dsm.fastpath_hits
        out["fastpath_misses"] = res.dsm.fastpath_misses
        out["region_cache_hits"] = res.dsm.region_cache_hits
        out["epoch_bumps"] = res.dsm.epoch_bumps
    return out


def run_bench(smoke: bool = False, nprocs: int = 8,
              only: Optional[list] = None, progress=None) -> dict:
    """Time every kernel; returns the result document (not yet written).

    ``smoke`` switches to the small ``test`` preset (a CI-sized run);
    ``only`` restricts to a subset of kernel names; ``progress`` is an
    optional callable fed one line per kernel.
    """
    preset = SMOKE_PRESET if smoke else FULL_PRESET
    calibration = calibrate()
    doc = {
        "schema": SCHEMA,
        "preset": preset,
        "nprocs": nprocs,
        "calibration_s": round(calibration, 4),
        "kernels": {},
    }
    for name, app, variant in BENCH_KERNELS:
        if only is not None and name not in only:
            continue
        entry = _time_kernel(app, variant, nprocs, preset)
        doc["kernels"][name] = entry
        if progress is not None:
            progress(f"{name:18s} wall={entry['wall_s']:8.3f}s "
                     f"events/s={entry['events_per_s']:>9,d} "
                     f"vtime={entry['vtime']:.6f} "
                     f"msgs={entry['messages']}")
    return doc


def write_results(doc: dict, path: str = DEFAULT_RESULT_PATH) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def load_baseline(path: str = DEFAULT_BASELINE_PATH) -> Optional[dict]:
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def check_regression(doc: dict, baseline: dict,
                     tolerance: float = 0.25) -> list:
    """Compare ``doc`` against ``baseline``; returns failure strings.

    Wall times are compared after scaling the baseline by the calibration
    ratio; virtual metrics must match exactly (they are machine
    -independent and fully deterministic).
    """
    failures: list = []
    if baseline.get("preset") != doc.get("preset"):
        return [f"baseline preset {baseline.get('preset')!r} does not match "
                f"run preset {doc.get('preset')!r}; not comparable"]
    base_cal = baseline.get("calibration_s") or 1.0
    scale = (doc.get("calibration_s") or base_cal) / base_cal
    for name, entry in doc["kernels"].items():
        base = baseline.get("kernels", {}).get(name)
        if base is None:
            continue
        for key in ("vtime", "messages", "kilobytes"):
            if entry[key] != base[key]:
                failures.append(
                    f"{name}: {key} changed {base[key]!r} -> {entry[key]!r} "
                    f"(simulated behaviour drifted; update the baseline "
                    f"only if the change is intended)")
        allowed = (base["wall_s"] * scale * (1.0 + tolerance)
                   + _WALL_ABS_SLACK_S)
        if entry["wall_s"] > allowed:
            failures.append(
                f"{name}: wall {entry['wall_s']:.3f}s exceeds "
                f"{allowed:.3f}s (baseline {base['wall_s']:.3f}s x "
                f"calibration {scale:.2f} x {1 + tolerance:.2f} "
                f"+ {_WALL_ABS_SLACK_S:.2f}s slack)")
    return failures

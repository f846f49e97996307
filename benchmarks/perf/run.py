#!/usr/bin/env python3
"""The repo's performance benchmark: one command, every metric, verified.

    python3 benchmarks/perf/run.py [--seed S] [--workload NAME ...]
                                   [--seconds N] [--trace [0|1]] [--quick]
                                   [--out FILE]
    python3 benchmarks/perf/run.py --regen-golden

Each workload runs in fresh child processes, one after another (see
``child.py``).  An end-to-end run of a workload is ``PROCESSES`` such
children, each setting up from cold and then measuring its share of
``--seconds``; every end-to-end metric is the median over them, so one
disturbed process cannot move a run.  ``--trace 1`` runs the traced child
instead and reports the per-layer metrics; bare ``--trace`` does both.

The last line of standard output for each workload is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is
non-zero when any request failed any check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from summary import NOISY_SPIN, geomean, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCHEMA = "repro-perfbench/1"
PROCESSES = 3            # fresh set-up + measurement processes per run
CHILD_TIMEOUT_S = 170


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def spawn(spec: dict) -> dict:
    """Run one child to completion and return its document."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([SRC, HERE]))
    spec = dict(spec, t_spawn=time.monotonic(), src_dir=SRC,
                out_dir=os.path.join(HERE, "out"))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
        env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"perfbench: child {spec.get('workload', spec['mode'])} "
                 f"exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().rsplit("\n", 1)[-1])


def is_noisy(children: list) -> bool:
    """Did some process of the run never see the host at its quiet speed?

    The speed metrics are best-of, so what spoils a run is not a slow
    phase but the absence of a fast one: the run is noisy when the fastest
    probe of one of its processes is more than 10 % slower than another's.
    """
    fastest = [min(c["spin_s"]) for c in children]
    return max(fastest) / min(fastest) - 1.0 > NOISY_SPIN


def pool_samples(children: list) -> dict:
    pooled: dict = {}
    for child in children:
        for key_id, samples in child["samples"].items():
            pooled.setdefault(key_id, []).extend(samples)
    return pooled


def end_to_end(children: list) -> dict:
    """The four end-to-end metrics of a group of measurement processes.

    The two speed metrics are *best-of*: the fastest round, and per key the
    fastest request.  On this class of host a vCPU alternates every few
    seconds between two speeds about 1.45x apart (README, "Why best-of"),
    so a median follows the neighbours' load while the best sample of a few
    dozen follows the program.  Medians and percentiles of every timing are
    still printed and stored beside them.
    """
    walls = [w for c in children for w in c["round_walls"]]
    return {
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "runs_per_min": 60.0 * children[0]["round_requests"] / min(walls),
        "run_geomean_s": geomean(min(v) for v
                                 in pool_samples(children).values()),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
    }


def run_e2e(name: str, args, units: dict) -> dict:
    processes = 1 if args.quick else PROCESSES
    children = [spawn({"mode": "e2e", "workload": name, "seed": args.seed,
                       "child": i, "slice_s": args.seconds / processes})
                for i in range(processes)]
    run, each = end_to_end(children), [end_to_end([c]) for c in children]
    pooled = pool_samples(children)
    walls = [w for c in children for w in c["round_walls"]]
    requests = sum(c["requests"] for c in children)
    return {
        "metrics": {m: {"value": run[m], "unit": unit,
                        "values": [e[m] for e in each]}
                    for m, unit in units.items()},
        "typical": {"runs_per_min": 60.0 * requests / sum(walls),
                    "run_geomean_s": geomean(statistics.median(v)
                                             for v in pooled.values())},
        "timings": {k: summarize(v) for k, v in sorted(pooled.items())},
        "round_wall_s": summarize(walls),
        "attempted": sum(c["attempted"] for c in children),
        "failures": [f for c in children for f in c["failures"]],
        "oracle_checked": sum(c["oracle_checked"] for c in children),
        "requests": requests,
        "counters": [c["counters"] for c in children],
        "placement": [c["placement"] for c in children],
        "spin_s": [c["spin_s"] for c in children],
        "nproc": children[0]["nproc"],
        "noisy": is_noisy(children),
    }


def run_trace(name: str, args, kernels: bool) -> dict:
    return spawn({"mode": "trace", "workload": name, "seed": args.seed,
                  "rounds": 1 if args.quick else 2,
                  "scale": 0.1 if args.quick else 1.0, "kernels": kernels})


def report(name: str, doc: dict) -> None:
    """Every metric by name, with its unit and what stands behind it."""
    e2e, traced = doc.get("end_to_end"), doc.get("per_layer")
    if e2e:
        for metric, m in e2e["metrics"].items():
            values = " ".join(f"{v:.4g}" for v in m["values"])
            print(f"{name:12s} {metric:34s} {m['value']:12.5g} {m['unit']:8s}"
                  f" per process: {values}")
        share = len(e2e["failures"]) / e2e["attempted"]
        print(f"{name:12s} {'failed_share':34s} {share:12.5g} {'ratio':8s}"
              f" {len(e2e['failures'])} of {e2e['attempted']} checks "
              f"({e2e['oracle_checked']} against the seq oracle)")
        for key_id, t in e2e["timings"].items():
            hi = (f"p{t['hi_percentile']:g} {t['hi']:.5g} s"
                  if t["hi"] is not None else "no percentile (n < 40)")
            print(f"{name:12s}   request wall {key_id:30s} best "
                  f"{t['best']:.5g} s, median {t['median']:.5g} s, {hi}, "
                  f"n={t['n']}")
    if traced:
        for metric, m in sorted(traced["metrics"].items()):
            print(f"{name:12s} {metric:34s} {m['value']:12.5g} {m['unit']:8s}"
                  f" n={m['n']}")
        for span, seconds in sorted(traced["span_self_s"].items()):
            print(f"{name:12s}   span self time {span:28s} {seconds:.5g} s")
    for part in (e2e, traced):
        for failure in (part or {}).get("failures", []):
            print(f"{name:12s} FAILED {failure}", file=sys.stderr)


def result_line(doc: dict, names: list, part: str) -> dict:
    section = doc[part]
    return {
        "correct": not section["failures"],
        "attempted": section["attempted"],
        "failed": len(section["failures"]),
        "metrics": {n: {"value": section["metrics"][n]["value"],
                        "unit": section["metrics"][n]["unit"]}
                    for n in names},
    }


def host_info() -> dict:
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)),
            "kernel": platform.release(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def regen_golden() -> int:
    doc = spawn({"mode": "golden"})
    doc = {"schema": "repro-perfbench-golden/1", "host": host_info(),
           "keys": dict(sorted(doc["keys"].items()))}
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"golden.json: {len(doc['keys'])} keys")
    return 0


def main(argv=None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured seconds per workload "
                             f"(default {bench['run_seconds']})")
    parser.add_argument("--trace", nargs="?", const="both", default="0",
                        choices=("0", "1", "both"),
                        help="0: end-to-end metrics; 1: per-layer metrics "
                             "from the traced run; bare --trace: both")
    parser.add_argument("--quick", action="store_true",
                        help="every metric at about a tenth of the length; "
                             "numbers are labelled quick and not comparable")
    parser.add_argument("--out", help="write the full output document here")
    parser.add_argument("--regen-golden", action="store_true",
                        help="regenerate golden.json (benchmark PRs only); "
                             "refuses to run together with timing")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    if args.regen_golden:
        if (args.workload or args.seconds is not None or args.quick
                or args.out or args.trace != "0"):
            parser.error("--regen-golden runs alone: golden values are "
                         "never produced by a timed run")
        return regen_golden()

    if args.seconds is None:
        args.seconds = bench["run_seconds"] * (0.1 if args.quick else 1.0)
    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_names = [m["name"] for m in bench["per_layer"]]
    out = {"schema": SCHEMA, "quick": args.quick, "seed": args.seed,
           "seconds": args.seconds, "processes_per_run": PROCESSES,
           "host": host_info(), "workloads": {}}
    failed = False
    names = args.workload or list(WORKLOADS)
    for position, name in enumerate(names):
        doc = {"why": WORKLOADS[name].why, "seed": args.seed}
        if args.trace in ("0", "both"):
            doc["end_to_end"] = run_e2e(name, args, e2e_units)
        if args.trace in ("1", "both"):
            # the micro-kernels do not depend on the workload: one
            # invocation measures them once, with its first traced child
            doc["per_layer"] = run_trace(name, args, kernels=position == 0)
            if position:
                first = out["workloads"][names[0]]["per_layer"]["metrics"]
                for metric in layer_names:
                    doc["per_layer"]["metrics"].setdefault(metric,
                                                           first[metric])
        out["workloads"][name] = doc
        report(name, doc)
        if "end_to_end" in doc:
            line = result_line(doc, list(e2e_units), "end_to_end")
            failed |= not line["correct"]
            print(json.dumps(line))
        if "per_layer" in doc:
            line = result_line(doc, layer_names, "per_layer")
            failed |= not line["correct"]
            print(json.dumps(line))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare two output documents of ``run.py --out`` row by row.

    python3 benchmarks/perf/compare.py BASE.json NEW.json

Every (end-to-end metric, workload) pair is one row, judged against the
bound ``BENCHMARK.json`` fixes for the metric:

* ``worse`` / ``better`` — NEW's median is beyond the bound on that side;
* ``same`` — within the bound;
* ``unresolved`` — either run was marked ``noisy`` (one of its processes
  never saw the host at the speed another did), the fastest host-speed
  probes of the two runs are more than 10 % apart (the host changed
  between them), or the processes of either run disagree among themselves
  by more than the bound, so the difference cannot be told from the run's
  own spread.

Exit code 1 on any ``worse`` row or on a higher failed share; 2 when the
documents cannot be compared (a ``--quick`` document against a full one).
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from summary import NOISY_SPIN, spread  # noqa: E402


def failed_share(section: dict) -> float:
    return len(section["failures"]) / section["attempted"]


def judge(metric: dict, base: dict, new: dict) -> tuple:
    """(verdict, signed change) — change > 0 means NEW is worse."""
    name, bound = metric["name"], metric["bound"]
    a, b = base["metrics"][name], new["metrics"][name]
    change = (b["value"] - a["value"]) / a["value"]
    if metric["better"] == "higher":
        change = -change
    quiet = [min(min(probes) for probes in side["spin_s"])
             for side in (base, new)]
    if (base["noisy"] or new["noisy"]
            or max(quiet) / min(quiet) - 1.0 > NOISY_SPIN
            or max(spread(a["values"]), spread(b["values"])) > bound):
        return "unresolved", change
    if change > bound:
        return "worse", change
    return ("better" if change < -bound else "same"), change


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path) as fh:
            docs.append(json.load(fh))
    base, new = docs
    if base["quick"] != new["quick"]:
        print("compare: a --quick document is not comparable with a full "
              "one", file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(os.path.dirname(HERE)),
                           "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]

    bad = False
    for name in base["workloads"]:
        a = base["workloads"][name].get("end_to_end")
        b = new["workloads"].get(name, {}).get("end_to_end")
        if not a or not b:
            continue
        for metric in metrics:
            verdict, change = judge(metric, a, b)
            bad |= verdict == "worse"
            print(f"{name:12s} {metric['name']:14s} {verdict:10s} "
                  f"{a['metrics'][metric['name']]['value']:12.5g} -> "
                  f"{b['metrics'][metric['name']]['value']:12.5g} "
                  f"{metric['unit']:8s} ({change:+.1%} of base, bound "
                  f"{metric['bound']:.0%}, "
                  f"{'lower' if metric['better'] == 'lower' else 'higher'}"
                  f" is better; + is worse)")
        fa, fb = failed_share(a), failed_share(b)
        verdict = "worse" if fb > fa else "same"
        bad |= fb > fa
        print(f"{name:12s} {'failed_share':14s} {verdict:10s} "
              f"{fa:12.5g} -> {fb:12.5g} ratio    (no increase allowed)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

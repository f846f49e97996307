"""Self-test of the performance benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Checks that the harness still runs after a refactor (``--quick``), that it
prints exactly the metrics ``BENCHMARK.json`` declares, that the golden
check can fail, and that ``--seed`` fixes the request lists.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def run(script_dir, *argv):
    return subprocess.run([sys.executable, os.path.join(script_dir, "run.py"),
                           *argv], stdout=subprocess.PIPE, text=True)


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "quick.json"
    proc = run(HERE, "--quick", "--trace", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-2000:]
    with open(out) as fh:
        return json.load(fh), proc.stdout


def test_quick_prints_the_declared_metrics(quick):
    doc, stdout = quick
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert doc["quick"] is True
    assert list(doc["workloads"]) == [w["name"] for w in bench["workloads"]]
    declared = {part: {m["name"] for m in bench[part]}
                for part in ("end_to_end", "per_layer")}
    for name, workload in doc["workloads"].items():
        for part, names in declared.items():
            printed = set(workload[part]["metrics"])
            assert printed == names, (name, part, printed ^ names)
            assert all(NAME.match(n) for n in printed)
        assert workload["end_to_end"]["failures"] == []
        assert workload["end_to_end"]["oracle_checked"] > 0 \
            or name == "model_sweep"
    lines = [json.loads(line) for line in stdout.splitlines()
             if line.startswith("{")]
    assert len(lines) == 2 * len(bench["workloads"])
    assert all(line["correct"] and line["failed"] == 0 for line in lines)


def test_compare_refuses_quick_against_full(quick, tmp_path):
    doc, _stdout = quick
    full = tmp_path / "full.json"
    full.write_text(json.dumps(dict(doc, quick=False)))
    quick_path = tmp_path / "quick.json"
    quick_path.write_text(json.dumps(doc))
    compare = os.path.join(HERE, "compare.py")
    assert subprocess.run([sys.executable, compare, str(quick_path),
                           str(full)]).returncode == 2
    assert subprocess.run([sys.executable, compare, str(quick_path),
                           str(quick_path)],
                          stdout=subprocess.DEVNULL).returncode == 0


def test_corrupted_golden_entry_fails_the_run(tmp_path):
    """A copy of the benchmark beside a link to the real ``src``, with one
    golden digest changed: the run must count failures and exit non-zero."""
    perf = tmp_path / "benchmarks" / "perf"
    shutil.copytree(HERE, perf, ignore=shutil.ignore_patterns(
        "out", "__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    golden_path = perf / "golden.json"
    golden = json.loads(golden_path.read_text())
    key = WORKLOADS["sim_sync"].keys[0].id
    golden["keys"][key]["digest"] = "0" * 64
    golden_path.write_text(json.dumps(golden))

    proc = run(str(perf), "--quick", "--workload", "sim_sync")
    assert proc.returncode != 0
    line = json.loads(proc.stdout.strip().rsplit("\n", 1)[-1])
    assert line["correct"] is False
    assert 0 < line["failed"] < line["attempted"]


def test_regen_golden_refuses_to_run_with_timing():
    assert run(HERE, "--regen-golden", "--quick").returncode == 2


def test_seed_fixes_the_request_lists():
    def lists(seed):
        return json.dumps([[key.request(tag=str(i)).to_json()
                            for i, key in enumerate(
                                w.round_requests(seed, child, round_no))]
                           for w in WORKLOADS.values()
                           for child in range(3) for round_no in range(2)])

    assert lists(5) == lists(5)
    serve = WORKLOADS["serve_mix"]
    assert serve.round_requests(5, 0, 0) != serve.round_requests(6, 0, 0)
    assert sorted(k.id for k in serve.round_requests(5, 0, 0)) == \
        sorted(k.id for k in serve.round_requests(6, 0, 0))

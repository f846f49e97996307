"""Result documents do not depend on the string hash seed.

Every process draws its own ``PYTHONHASHSEED``, and the seed orders any
``set`` of strings: a result whose key order came from one would print
differently from one process to the next, while its ``fingerprint()`` dict
still compared equal.  Two subprocesses under different seeds run the
same requests, and their ``canonical_bytes()`` must match byte for byte.
"""

import json
import os
import pathlib
import subprocess
import sys

import repro

#: the synchronisation-bound DSM keys, then a fixed sample of small runs
#: over every app and variant kind (all at the ``test`` preset)
KEYS = [("jacobi", "spf", 8), ("jacobi", "tmk", 8), ("igrid", "spf", 8),
        ("nbf", "spf", 8),
        ("jacobi", "pvme", 2), ("fft3d", "tmk", 2), ("igrid", "xhpf", 4),
        ("mgs", "spf", 2), ("shallow", "tmk", 4), ("nbf", "xhpf", 2)]

_SCRIPT = """
import json, sys
from repro.api import RunRequest, execute
for app, variant, n in json.loads(sys.argv[1]):
    result = execute(RunRequest(app, variant, nprocs=n, preset="test",
                                seq_time=1.0))
    assert result.ok, result.error
    print(result.canonical_bytes().decode())
"""


def _documents(hash_seed: int) -> str:
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(KEYS)], env=env,
        capture_output=True, text=True, check=True, timeout=50).stdout


def test_result_bytes_do_not_depend_on_the_hash_seed():
    first = _documents(1)
    assert first.count("\n") == len(KEYS)
    assert first == _documents(3)

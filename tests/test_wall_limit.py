"""The suite's per-test wall limit (``tests/conftest.py``): a test that
never ends stops the run and is named on stderr, through pytest's
output capture."""

import os
import subprocess
import sys
import textwrap

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RUNNER = """
import sys
import pytest
import tests.conftest as conftest
conftest.TEST_WALL_LIMIT_S = 1.0
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", sys.argv[1]],
                     plugins=[conftest]))
"""


def test_a_hang_fails_with_its_name(tmp_path):
    endless = tmp_path / "test_endless.py"
    endless.write_text(textwrap.dedent("""
        import time

        def test_never_ends():
            while True:
                time.sleep(0.05)
    """))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src"), REPO_ROOT]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", RUNNER, str(endless)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert "test_never_ends" in proc.stderr, proc.stderr

"""The suite's own harness: a failing @given test must report its example.

The suite runs with every warning as an error.  A failing hypothesis test
once ended the run in a pytest INTERNALERROR instead (see conftest.py).
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

FAILING = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(n):
    assert n < 10


def test_after():
    pass
"""


def test_failing_given_test_prints_its_example(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING)
    tests = str(REPO / "tests")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [tests, os.environ.get("PYTHONPATH")])))
    # the suite's own config, with its conftest loaded as a plugin
    argv = ["-c", str(REPO / "pyproject.toml"), "--rootdir", str(REPO), "-p", "no:cacheprovider", "-p", "conftest"]
    result = subprocess.run(
        [sys.executable, "-m", "pytest", *argv, "test_failing.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    out = result.stdout + result.stderr
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out

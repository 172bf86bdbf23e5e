"""The test harness itself: a failing property test must not end the run."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).parent

TWO_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    assert True
'''


def test_failing_given_test_does_not_hide_later_tests(tmp_path):
    # hypothesis's failure report imports libcst, whose DeprecationWarning
    # under -W error used to stop pytest with INTERNALERROR
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    shutil.copy(TESTS / "conftest.py", tmp_path / "conftest.py")
    env = {**os.environ, "PYTHONPATH": str(TESTS.parent / "src")}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-W", "error", "-p", "no:cacheprovider"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout

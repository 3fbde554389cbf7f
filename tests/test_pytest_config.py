"""The suite's pytest configuration, checked by running pytest on a scratch file."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_THEN_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_a_failing_property(n):
    assert n < 0


def test_a_passing_test():
    pass
'''


def test_a_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    """Under the suite's settings, warnings turned into errors included, a
    failing `@given` test is reported as one failure and the test after it
    still runs: the import warnings of hypothesis' failure report do not
    end the session in an INTERNALERROR."""
    (tmp_path / "test_scratch.py").write_text(FAILING_THEN_PASSING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), str(tmp_path / "test_scratch.py")],
        cwd=tmp_path, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=120)
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out and "1 failed, 1 passed" in out, out

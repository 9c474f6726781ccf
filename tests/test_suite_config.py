"""The suite's own pytest configuration: a failing test is reported as a
failure and the session runs on.

``pyproject.toml`` turns every warning into an error.  Hypothesis's
failure reporter imports libcst, whose import warns that
``mypy_extensions.TypedDict`` is deprecated; as an error, that warning
ends the session with INTERNALERROR at the first failing ``@given``
test, and no later test runs.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_GIVEN = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_failing_given_test_leaves_the_session_running(tmp_path):
    (tmp_path / "test_given.py").write_text(FAILING_GIVEN, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_given.py")],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout.splitlines()[-1]

"""The repository's pytest settings: a warning fails the test that raised it,
and a failing property still reports its falsifying example.

Each case runs pytest in a fresh process on a small test file, under the
settings in ``pyproject.toml``.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

_CASES = '''
import warnings

from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_property_fails(n):
    assert n < 5


def test_warning_fails():
    warnings.warn("deprecated", DeprecationWarning)
'''


def test_failing_property_reports_its_example_and_a_warning_fails_its_test(tmp_path):
    (tmp_path / "test_cases.py").write_text(_CASES, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "-rf", "test_cases.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "Falsifying example: test_property_fails(" in result.stdout
    assert "FAILED test_cases.py::test_warning_fails - DeprecationWarning: deprecated" in result.stdout
    assert result.stdout.splitlines()[-1].startswith("2 failed in ")

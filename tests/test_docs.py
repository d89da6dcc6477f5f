"""The README's examples run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from engmeta.extract import parse_config

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


@pytest.mark.parametrize("block", _blocks("ini"))
def test_readme_config_examples_parse(block):
    assert parse_config(block).rules


def test_readme_quick_tour_runs():
    (tour,) = _blocks("python")
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", tour],  # a warning fails, as in this process
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr

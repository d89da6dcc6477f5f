import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gromacs import gromacs_dataset  # noqa: E402

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def gromacs_doc():
    return gromacs_dataset()


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return DATA_DIR / "corpus"


@pytest.fixture(scope="session")
def rules_path() -> Path:
    return DATA_DIR / "rules.conf"


@pytest.fixture(scope="session")
def steps_rules_path() -> Path:
    return DATA_DIR / "steps.conf"


@pytest.fixture(scope="session")
def golden_xml_path() -> Path:
    return DATA_DIR / "golden.xml"


@pytest.fixture()
def non_utf8_tree(tmp_path) -> Path:
    """A tree of ``good.txt`` and two files with equal content whose names
    differ only in a byte that is not UTF-8 (0xFE and 0xFF)."""
    root = tmp_path / "tree"
    root.mkdir()
    (root / "good.txt").write_bytes(b"good")
    for raw in (b"bad\xfename.txt", b"bad\xffname.txt"):
        try:
            with open(os.path.join(os.fsencode(root), raw), "wb") as handle:
                handle.write(b"same")
        except OSError:
            pytest.skip("the file system refuses names that are not UTF-8")
    return root


@pytest.fixture()
def make_unlistable(monkeypatch):
    """Make listing the given directory fail, as an unreadable one would.

    A permission bit cannot do this when the suite runs as root, so
    ``os.scandir`` (which ``os.walk`` lists through) raises instead.
    """
    real_scandir = os.scandir

    def unlistable(directory: Path) -> None:
        def scandir(path="."):
            if Path(path) == directory:
                raise PermissionError(13, "Permission denied", os.fspath(path))
            return real_scandir(path)

        monkeypatch.setattr(os, "scandir", scandir)

    return unlistable

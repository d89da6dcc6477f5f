import os

from engmeta.fswalk import walk_files
from oracles import walk_files_by_os_walk


def _tree(root):
    (root / "b" / "deep").mkdir(parents=True)
    (root / "a").mkdir()
    (root / "empty").mkdir()
    (root / "locked").mkdir()
    (root / "locked" / "hidden.txt").write_text("x")
    for name in ("z.txt", ".hidden", "a/1.log", "b/2.log", "b/deep/3.log", "a.txt"):
        (root / name).write_text(name)
    os.symlink(root / "z.txt", root / "link.txt")
    os.symlink(root / "b", root / "a" / "dirlink")
    os.symlink(root / "missing", root / "dangling")
    os.mkfifo(root / "b" / "pipe")


def test_walk_matches_the_os_walk_reference(tmp_path, make_unlistable):
    _tree(tmp_path)
    make_unlistable(tmp_path / "locked")
    reports, expected_reports = [], []
    entries = walk_files(tmp_path, lambda where, error: reports.append(where))
    expected = walk_files_by_os_walk(tmp_path, lambda where, error: expected_reports.append(where))
    assert entries == expected
    assert [name for name, _ in entries] == [
        ".hidden", "a.txt", "a/1.log", "b/2.log", "b/deep/3.log", "z.txt",
    ]
    assert reports == expected_reports == ["locked"]
    assert walk_files(tmp_path / "nowhere") == walk_files_by_os_walk(tmp_path / "nowhere") == []


def test_walk_stats_no_file(monkeypatch, corpus_dir):
    calls = []
    for name in ("stat", "lstat"):
        real = getattr(os, name)

        def counted(*args, _real=real, **kwargs):
            calls.append(args[0])
            return _real(*args, **kwargs)

        monkeypatch.setattr(os, name, counted)
    entries = walk_files(corpus_dir)
    monkeypatch.undo()
    assert len(entries) == len(walk_files_by_os_walk(corpus_dir)) > 5
    assert calls == []


def test_entry_that_vanishes_before_its_type_check_is_skipped(tmp_path, monkeypatch):
    for name in ("a.txt", "gone.txt", "z.txt"):
        (tmp_path / name).write_text(name)
    real_scandir = os.scandir

    class Vanished:
        """A listed entry whose file is removed before its type is read."""

        def __init__(self, entry):
            self.name, self.path = entry.name, entry.path

        def is_dir(self, follow_symlinks=True):
            raise FileNotFoundError(2, "No such file or directory", self.path)

    class Listing:
        def __init__(self, path):
            with real_scandir(path) as listing:
                self.entries = [Vanished(e) if e.name == "gone.txt" else e for e in listing]

        def __enter__(self):
            return iter(self.entries)

        def __exit__(self, *exc_info):
            return False

    monkeypatch.setattr(os, "scandir", Listing)
    assert [name for name, _ in walk_files(tmp_path)] == ["a.txt", "z.txt"]

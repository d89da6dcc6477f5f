"""Deterministic file-system enumeration shared by extraction and harvest."""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable


def walk_files(
    root: Path,
    on_unreadable: Callable[[str, OSError], None] | None = None,
) -> list[tuple[str, Path]]:
    """All regular files under root as (posix relative path, absolute path).

    Sorted by relative path; symlinks are not followed; hidden files are
    included. A directory that cannot be listed is skipped, and reported to
    ``on_unreadable`` (with its posix relative path) when that is given.
    """

    def report(error: OSError) -> None:
        if on_unreadable is not None:
            where = Path(error.filename or root).relative_to(root).as_posix()
            on_unreadable(where, error)

    entries: list[tuple[str, Path]] = []
    for dirpath, dirnames, filenames in os.walk(root, onerror=report, followlinks=False):
        dirnames.sort()
        filenames.sort()
        for filename in filenames:
            path = Path(dirpath) / filename
            if path.is_symlink() or not path.is_file():
                continue
            entries.append((path.relative_to(root).as_posix(), path))
    entries.sort(key=lambda entry: entry[0])
    return entries

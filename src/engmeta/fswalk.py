"""Deterministic file-system enumeration shared by extraction and harvest, and
the names of walked files as documents carry them (``utf8_name``)."""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable

from .model import text_fault, xml_text


def utf8_name(relative_path: str) -> tuple[str, str | None]:
    """A walked name as documents carry it, and a note giving its bytes when that
    differs, or None: U+FFFD stands for each byte that is not UTF-8 (``os.fsdecode``
    left a lone surrogate for each) and for each character XML cannot carry."""
    if text_fault(relative_path) is None:
        return relative_path, None
    raw_name = os.fsencode(relative_path)
    name = raw_name.decode("utf-8", "replace")
    carried = xml_text(name)
    if carried == name:
        return name, (f"file name {raw_name!r} is not UTF-8; "
                      "listed with U+FFFD for its undecodable bytes")
    return carried, (f"file name {raw_name!r} holds characters XML cannot carry; "
                     "listed with U+FFFD for each")


def walk_files(
    root: Path,
    on_unreadable: Callable[[str, OSError], None] | None = None,
) -> list[tuple[str, Path]]:
    """All regular files under root as (posix relative path, absolute path).

    Sorted by relative path; symlinks are not followed; hidden files are
    included. A directory that cannot be listed is skipped, and reported to
    ``on_unreadable`` (its posix relative path named by ``utf8_name``), if given.
    """

    entries: list[tuple[str, Path]] = []
    # (directory, its relative path with a trailing "/", or "" for root);
    # the type flags of each listing entry come from the directory read
    # itself, so no file is stat-ed
    pending: list[tuple[str, str]] = [(os.fspath(root), "")]
    while pending:
        directory, prefix = pending.pop()
        files: list[tuple[str, Path]] = []
        subdirectories: list[tuple[str, str]] = []
        try:
            with os.scandir(directory) as listing:
                for entry in listing:
                    try:
                        if entry.is_dir(follow_symlinks=False):
                            subdirectories.append((entry.path, f"{prefix}{entry.name}/"))
                        elif entry.is_file(follow_symlinks=False):
                            files.append((prefix + entry.name, Path(entry.path)))
                    except OSError:
                        continue  # vanished between the listing and its type check
        except OSError as error:
            if on_unreadable is not None:
                on_unreadable(utf8_name(prefix[:-1] or ".")[0], error)
            continue
        entries.extend(files)
        pending.extend(subdirectories)
    entries.sort(key=lambda entry: entry[0])
    return entries
